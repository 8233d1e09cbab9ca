//! Serde support for the graph configuration enums.
//!
//! Hand-written because [`WeightScheme::HeatKernel`] and
//! [`GraphBackend::RpForest`] carry data, which the vendored derive does
//! not cover. Fieldless variants serialize as their name string;
//! `HeatKernel` as `{"kind": "HeatKernel", "sigma": σ}` and `RpForest`
//! as `{"kind": "RpForest", <its fields inlined>}`.

use crate::ann::{GraphBackend, RpForestParams};
use crate::knn::WeightScheme;
use crate::laplacian::LaplacianKind;
use serde::{Deserialize, Error, Serialize, Value};

impl Serialize for WeightScheme {
    fn to_value(&self) -> Value {
        match self {
            WeightScheme::Binary => Value::String("Binary".into()),
            WeightScheme::Cosine => Value::String("Cosine".into()),
            WeightScheme::HeatKernel { sigma } => Value::Object(vec![
                ("kind".to_string(), Value::String("HeatKernel".into())),
                ("sigma".to_string(), sigma.to_value()),
            ]),
        }
    }
}

impl Deserialize for WeightScheme {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::String(s) => match s.as_str() {
                "Binary" => Ok(WeightScheme::Binary),
                "Cosine" => Ok(WeightScheme::Cosine),
                other => Err(Error(format!("unknown WeightScheme `{other}`"))),
            },
            Value::Object(_) => {
                let kind = v
                    .get_field("kind")?
                    .as_str()
                    .unwrap_or_default()
                    .to_string();
                if kind != "HeatKernel" {
                    return Err(Error(format!("unknown WeightScheme kind `{kind}`")));
                }
                Ok(WeightScheme::HeatKernel {
                    sigma: f64::from_value(v.get_field("sigma")?)?,
                })
            }
            other => Err(Error(format!(
                "expected a WeightScheme string or object, found {}",
                other.kind()
            ))),
        }
    }
}

impl Serialize for LaplacianKind {
    fn to_value(&self) -> Value {
        Value::String(
            match self {
                LaplacianKind::Unnormalized => "Unnormalized",
                LaplacianKind::SymNormalized => "SymNormalized",
            }
            .to_string(),
        )
    }
}

impl Deserialize for LaplacianKind {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v.as_str() {
            Some("Unnormalized") => Ok(LaplacianKind::Unnormalized),
            Some("SymNormalized") => Ok(LaplacianKind::SymNormalized),
            Some(other) => Err(Error(format!("unknown LaplacianKind `{other}`"))),
            None => Err(Error(format!(
                "expected a LaplacianKind string, found {}",
                v.kind()
            ))),
        }
    }
}

impl Serialize for GraphBackend {
    fn to_value(&self) -> Value {
        match self {
            GraphBackend::Exact => Value::String("Exact".into()),
            GraphBackend::RpForest(p) => Value::Object(vec![
                ("kind".to_string(), Value::String("RpForest".into())),
                ("trees".to_string(), p.trees.to_value()),
                ("leaf_size".to_string(), p.leaf_size.to_value()),
                ("probes".to_string(), p.probes.to_value()),
                ("seed".to_string(), p.seed.to_value()),
            ]),
        }
    }
}

impl Deserialize for GraphBackend {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::String(s) => match s.as_str() {
                "Exact" => Ok(GraphBackend::Exact),
                other => Err(Error(format!("unknown GraphBackend `{other}`"))),
            },
            Value::Object(_) => {
                let kind = v
                    .get_field("kind")?
                    .as_str()
                    .unwrap_or_default()
                    .to_string();
                if kind != "RpForest" {
                    return Err(Error(format!("unknown GraphBackend kind `{kind}`")));
                }
                Ok(GraphBackend::RpForest(RpForestParams {
                    trees: usize::from_value(v.get_field("trees")?)?,
                    leaf_size: usize::from_value(v.get_field("leaf_size")?)?,
                    probes: usize::from_value(v.get_field("probes")?)?,
                    seed: u64::from_value(v.get_field("seed")?)?,
                }))
            }
            other => Err(Error(format!(
                "expected a GraphBackend string or object, found {}",
                other.kind()
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schemes_round_trip() {
        for scheme in [
            WeightScheme::Binary,
            WeightScheme::Cosine,
            WeightScheme::HeatKernel { sigma: 2.5 },
        ] {
            let back = WeightScheme::from_value(&scheme.to_value()).unwrap();
            assert_eq!(back, scheme);
        }
    }

    #[test]
    fn kinds_round_trip() {
        for kind in [LaplacianKind::Unnormalized, LaplacianKind::SymNormalized] {
            assert_eq!(LaplacianKind::from_value(&kind.to_value()).unwrap(), kind);
        }
    }

    #[test]
    fn backends_round_trip() {
        for backend in [
            GraphBackend::Exact,
            GraphBackend::RpForest(RpForestParams {
                trees: 3,
                leaf_size: 17,
                probes: 5,
                seed: 99,
            }),
        ] {
            let back = GraphBackend::from_value(&backend.to_value()).unwrap();
            assert_eq!(back, backend);
        }
    }

    #[test]
    fn unknown_rejected() {
        assert!(WeightScheme::from_value(&Value::String("Nope".into())).is_err());
        assert!(LaplacianKind::from_value(&Value::Number(1.0)).is_err());
        assert!(GraphBackend::from_value(&Value::String("Nope".into())).is_err());
        assert!(GraphBackend::from_value(&Value::Number(1.0)).is_err());
        let retired = Value::Object(vec![(
            "kind".to_string(),
            Value::String("ClusterPruned".to_string()),
        )]);
        assert!(GraphBackend::from_value(&retired).is_err());
    }
}
