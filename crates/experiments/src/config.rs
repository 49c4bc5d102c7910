//! Run configuration shared by all experiments.

use serde::{Deserialize, Serialize};

/// How much work an experiment run should do.
///
/// * `Smoke` — seconds-scale, used by tests and CI: small `n`, few
///   replications; verifies mechanics and directional expectations only.
/// * `Standard` — the default for example binaries and Criterion benches.
/// * `Full` — the scale used to produce the tables in `EXPERIMENTS.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scale {
    /// Seconds-scale smoke run.
    Smoke,
    /// Default scale for examples and benches.
    Standard,
    /// Publication scale (minutes).
    Full,
}

impl Scale {
    /// Picks one of three values by scale.
    #[must_use]
    pub fn pick<T: Copy>(self, smoke: T, standard: T, full: T) -> T {
        match self {
            Scale::Smoke => smoke,
            Scale::Standard => standard,
            Scale::Full => full,
        }
    }

    /// The lowercase scale name, as accepted by [`Scale::from_str`] and
    /// recorded in run manifests.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Standard => "standard",
            Scale::Full => "full",
        }
    }
}

impl std::fmt::Display for Scale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Scale {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "smoke" => Ok(Scale::Smoke),
            "standard" => Ok(Scale::Standard),
            "full" => Ok(Scale::Full),
            other => Err(format!("unknown scale '{other}' (smoke|standard|full)")),
        }
    }
}

/// Which engine drives replicated aggregate-chain convergence batches.
///
/// The batched and per-replica engines are bit-identical per replication
/// (each replication's RNG derives from its index alone), so the choice
/// between them affects throughput only —
/// `workload::tests::engines_agree_bit_for_bit` pins the equivalence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum ReplicationEngine {
    /// Lock-step batched simulation: chunks of replicas advance round by
    /// round through a shared kernel and one dense per-state plan table
    /// shared by every chunk (a per-chunk plan cache above 2¹⁷ states).
    /// The fast default; bit-identical to `PerReplica`.
    #[default]
    Batched,
    /// One simulator per replication over the generic pool path. Kept as
    /// the executable reference the batched engine is proven against.
    PerReplica,
}

impl ReplicationEngine {
    /// The lowercase engine name, as accepted by
    /// [`ReplicationEngine::from_str`] and recorded in run output.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ReplicationEngine::Batched => "batched",
            ReplicationEngine::PerReplica => "per-replica",
        }
    }
}

impl std::fmt::Display for ReplicationEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for ReplicationEngine {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "batched" => Ok(ReplicationEngine::Batched),
            "per-replica" | "per_replica" | "perreplica" => Ok(ReplicationEngine::PerReplica),
            other => Err(format!("unknown engine '{other}' (batched|per-replica)")),
        }
    }
}

/// Configuration of one experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunConfig {
    /// Work scale.
    pub scale: Scale,
    /// Base seed; all randomness is derived from it deterministically.
    pub seed: u64,
    /// Worker threads (`None` = `bitdissem_pool::effective_parallelism()`).
    pub threads: Option<usize>,
    /// Replication engine for aggregate convergence batches.
    #[serde(default)]
    pub engine: ReplicationEngine,
    /// Environment perturbation schedule applied between rounds (`None`
    /// means the static, unperturbed process). Recorded in run manifests
    /// and in checkpoint batch kinds.
    #[serde(default)]
    pub env: Option<bitdissem_sim::EnvSchedule>,
}

impl RunConfig {
    /// A smoke-scale configuration.
    #[must_use]
    pub fn smoke(seed: u64) -> Self {
        Self::with_scale(Scale::Smoke, seed)
    }

    /// A standard-scale configuration.
    #[must_use]
    pub fn standard(seed: u64) -> Self {
        Self::with_scale(Scale::Standard, seed)
    }

    /// A full-scale configuration.
    #[must_use]
    pub fn full(seed: u64) -> Self {
        Self::with_scale(Scale::Full, seed)
    }

    fn with_scale(scale: Scale, seed: u64) -> Self {
        Self { scale, seed, threads: None, engine: ReplicationEngine::default(), env: None }
    }

    /// Switches the replication engine (builder-style).
    #[must_use]
    pub fn with_engine(mut self, engine: ReplicationEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Installs an environment perturbation schedule (builder-style). An
    /// inert schedule is normalized back to `None`.
    #[must_use]
    pub fn with_env(mut self, env: bitdissem_sim::EnvSchedule) -> Self {
        self.env = (!env.is_inert()).then_some(env);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::str::FromStr;

    #[test]
    fn pick_selects_by_scale() {
        assert_eq!(Scale::Smoke.pick(1, 2, 3), 1);
        assert_eq!(Scale::Standard.pick(1, 2, 3), 2);
        assert_eq!(Scale::Full.pick(1, 2, 3), 3);
    }

    #[test]
    fn scale_parses() {
        assert_eq!(Scale::from_str("smoke").unwrap(), Scale::Smoke);
        assert_eq!(Scale::from_str("FULL").unwrap(), Scale::Full);
        assert!(Scale::from_str("bogus").is_err());
    }

    #[test]
    fn scale_name_round_trips_through_from_str() {
        for scale in [Scale::Smoke, Scale::Standard, Scale::Full] {
            assert_eq!(Scale::from_str(scale.name()).unwrap(), scale);
            assert_eq!(scale.to_string(), scale.name());
        }
    }

    #[test]
    fn constructors() {
        assert_eq!(RunConfig::smoke(7).scale, Scale::Smoke);
        assert_eq!(RunConfig::standard(7).scale, Scale::Standard);
        assert_eq!(RunConfig::full(7).seed, 7);
        assert_eq!(RunConfig::smoke(7).engine, ReplicationEngine::Batched);
        assert_eq!(
            RunConfig::smoke(7).with_engine(ReplicationEngine::PerReplica).engine,
            ReplicationEngine::PerReplica
        );
    }

    #[test]
    fn env_builder_and_serde_default() {
        assert_eq!(RunConfig::smoke(7).env, None);
        let env: bitdissem_sim::EnvSchedule = "flip@10".parse().unwrap();
        assert_eq!(RunConfig::smoke(7).with_env(env).env, Some(env));
        assert_eq!(
            RunConfig::smoke(7).with_env(bitdissem_sim::EnvSchedule::default()).env,
            None,
            "an inert schedule normalizes to None"
        );
    }

    #[test]
    fn engine_parses_and_round_trips() {
        for engine in [ReplicationEngine::Batched, ReplicationEngine::PerReplica] {
            assert_eq!(ReplicationEngine::from_str(engine.name()).unwrap(), engine);
            assert_eq!(engine.to_string(), engine.name());
        }
        assert_eq!(
            ReplicationEngine::from_str("per_replica").unwrap(),
            ReplicationEngine::PerReplica
        );
        for retired in ["wide", "simd", "bogus"] {
            let err = ReplicationEngine::from_str(retired).unwrap_err();
            assert!(err.contains("batched|per-replica"), "{err}");
        }
    }
}
