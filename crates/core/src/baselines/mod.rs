//! DRCC (ref \[1\]), the two-way baseline of Sec. IV-B with its own
//! solver. The other baselines (SRC, SNMTF, RMC) are rows of the engine
//! table in [`crate::pipeline`].

mod drcc;

pub(crate) use drcc::{run_drcc, variant_matrix, DrccConfig, DrccVariant};
