//! Criterion benchmark support crate.
//!
//! The benches (in `benches/`) cover every timing-bearing artifact of the
//! paper — Table II/III/IV transpile times, Fig. 11 noisy-simulation
//! throughput — plus ablations over the pipeline's design choices (QBO
//! vs QPO contribution, early-QBO placement, phase-relaxed and extended
//! rule variants) and microbenchmarks of the compilation kernels (KAK
//! decomposition, state-vector simulation).
