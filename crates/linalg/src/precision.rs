//! The one-value precision setting of the fit configs.

/// Operand precision of a fit. Every kernel runs in `f64`, so this has
/// one value. It is kept only for the end-to-end benchmark's call sites
/// (`RhchmeConfig::precision`, `EngineConfig::precision` and
/// `rhchme::intra::pnn_laplacians_backend_prec`), and goes with the
/// perfbench / `GraphSpec` item of ROADMAP.md. Persisted configs carry
/// it as `"F64"`; any other value fails to deserialize.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum Precision {
    /// Double-precision operands and accumulation.
    #[default]
    F64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize, Value};

    #[test]
    fn serde_reads_f64_and_rejects_anything_else() {
        assert_eq!(Precision::F64.to_value(), Value::String("F64".into()));
        assert_eq!(
            Precision::from_value(&Value::String("F64".into())).unwrap(),
            Precision::F64
        );
        for other in ["F32", "F16"] {
            assert!(Precision::from_value(&Value::String(other.into())).is_err());
        }
    }
}
