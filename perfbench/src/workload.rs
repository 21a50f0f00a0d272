//! The Table-I SPEECH workloads: inputs, model configuration and the
//! timed set-up (data generation, fit, kernel build, server start).

use std::io;
use std::sync::Arc;
use std::time::Instant;

use lookhd::{CompressionConfig, KernelSpec, LookHdClassifier, LookHdConfig};
use lookhd_datasets::apps::App;
use lookhd_datasets::synthetic::Generator;
use lookhd_datasets::Split;
use lookhd_serve::{server, OnlineConfig, ServeConfig, ServerHandle};
use rand::rngs::StdRng;
use rand::SeedableRng;

use hdc::FitClassifier;

/// Training, test and held-out feedback rows per class. Train and test
/// are the SPEECH profile's defaults; feedback feeds `speech_online` and
/// the local refresh replica of `speech_paper`.
const TRAIN_PER_CLASS: usize = 60;
const TEST_PER_CLASS: usize = 20;
const FEEDBACK_PER_CLASS: usize = 40;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper-default model (decorrelation on, `KernelSpec::auto()`,
    /// which resolves to the dense kernel) behind `server::start`.
    Paper,
    /// The paper-default model behind `server::start_online`, with
    /// open-loop feedback and manual refreshes beside the predicts.
    Online,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::Paper, Workload::Online];

    /// The workload's name on the command line and in records.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper => "speech_paper",
            Workload::Online => "speech_online",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether predicts are served by an online-training server.
    pub fn online(self) -> bool {
        self == Workload::Online
    }

    /// The fit configuration: SPEECH at n=617, k=26, q=4, r=5, D=2000,
    /// with the paper's defaults (decorrelation on) and
    /// `KernelSpec::auto()`, which resolves to the dense kernel.
    pub fn config(self) -> LookHdConfig {
        LookHdConfig::new().with_kernel(KernelSpec::auto())
    }
}

/// Everything the workload sends, generated from the seed alone.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// Rows the model is fitted on.
    pub train: Split,
    /// Labelled queries the predict traffic draws from.
    pub test: Split,
    /// Held-out labelled rows the feedback traffic draws from.
    pub feedback: Split,
}

/// Draws the SPEECH train, test and held-out feedback splits from one
/// generator seeded with `seed`.
pub fn inputs(seed: u64) -> Inputs {
    let profile = App::Speech.profile();
    let mut rng = StdRng::seed_from_u64(seed);
    let generator = Generator::from_rng(profile.generator_config(), &mut rng);
    Inputs {
        train: generator.split(TRAIN_PER_CLASS, &mut rng),
        test: generator.split(TEST_PER_CLASS, &mut rng),
        feedback: generator.split(FEEDBACK_PER_CLASS, &mut rng),
    }
}

/// The exact score-LUT configuration: the workload model's settings with
/// decorrelation off and `KernelSpec::lut()`. The traced run fits it beside
/// the served model to time `ScoreLut::scores`, which the decorrelated
/// workload models do not have.
pub fn lut_twin_config() -> LookHdConfig {
    LookHdConfig::new()
        .with_compression(CompressionConfig::new().with_decorrelate(false))
        .with_kernel(KernelSpec::lut())
}

/// A served model and the local copy the correctness gate checks against.
pub struct Served {
    /// The running server.
    pub handle: ServerHandle,
    /// The exact model version 1 the server answers with.
    pub model: Arc<LookHdClassifier>,
    /// The inputs the set-up generated.
    pub inputs: Inputs,
    /// Wall time of this set-up, in seconds.
    pub seconds: f64,
}

/// One full set-up: generate the inputs, fit (which builds the kernel)
/// and start the server with its defaults (1 reactor, 1 worker, batches
/// of at most 16).
pub fn setup(workload: Workload, seed: u64) -> io::Result<Served> {
    let started = Instant::now();
    let inputs = inputs(seed);
    let model = LookHdClassifier::fit(
        &workload.config(),
        &inputs.train.features,
        &inputs.train.labels,
    )
    .map_err(|e| io::Error::other(format!("fit failed: {e}")))?;
    let model = Arc::new(model);
    let handle = if workload.online() {
        server::start_online(
            "127.0.0.1:0",
            LookHdClassifier::clone(&model),
            ServeConfig::new(),
            OnlineConfig::new(),
        )?
    } else {
        server::start("127.0.0.1:0", model.clone(), ServeConfig::new())?
    };
    Ok(Served {
        handle,
        model,
        inputs,
        seconds: started.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_same_inputs_and_other_seeds_differ() {
        let a = inputs(7);
        assert_eq!(a, inputs(7));
        let b = inputs(8);
        assert_ne!(a.train.features, b.train.features);
        assert_ne!(a.test.features, b.test.features);
        assert_ne!(a.feedback.features, b.feedback.features);
    }

    #[test]
    fn inputs_have_the_table_one_speech_shape() {
        let x = inputs(1);
        assert_eq!(x.train.len(), 26 * TRAIN_PER_CLASS);
        assert_eq!(x.test.len(), 26 * TEST_PER_CLASS);
        assert_eq!(x.feedback.len(), 26 * FEEDBACK_PER_CLASS);
        assert!(x.test.features.iter().all(|row| row.len() == 617));
    }

    #[test]
    fn configs_match_the_workload_definitions() {
        let paper = Workload::Paper.config();
        assert_eq!((paper.dim, paper.q, paper.r), (2000, 4, 5));
        assert!(paper.compression.decorrelate);
        assert!(!lut_twin_config().compression.decorrelate);
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("speech"), None);
    }
}
