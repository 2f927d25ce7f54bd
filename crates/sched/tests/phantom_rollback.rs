//! Regression: quarantining a tenant's only generation is not a
//! rollback. With nothing healthy to roll back to, the slot keeps
//! serving the quarantined generation (every batch keeps failing typed
//! rather than the tenant going dark) and `auto_rollbacks` stays 0 —
//! in the report's counts *and* in `ffdl.sched.auto_rollbacks`, which
//! used to be bumped for a rollback that never happened.

use ffdl_deploy::parse_architecture;
use ffdl_registry::ModelStore;
use ffdl_sched::{SchedConfig, Scheduler, TenantSpec};
use ffdl_serve::{FailureKind, ServeError};
use ffdl_tensor::Tensor;

const THRESHOLD: u32 = 4;
const REQUESTS: u64 = 24;

/// A network whose every parameter is NaN: each batch trips the
/// logits finiteness scan.
fn nan_network() -> ffdl_nn::Network {
    let arch = "input 16\ncirculant_fc 16 block=4\nrelu\nfc 4\nsoftmax\n";
    let mut net = parse_architecture(arch, 1).expect("arch parses").network;
    for layer in net.layers_mut() {
        let nan_params: Vec<Tensor> = layer
            .param_tensors()
            .iter()
            .map(|t| Tensor::from_fn(t.shape(), |_| f32::NAN))
            .collect();
        layer.load_params(&nan_params).expect("load NaN params");
    }
    net
}

#[test]
fn quarantine_without_a_healthy_target_is_not_a_rollback() {
    let dir = std::env::temp_dir().join(format!("ffdl-sched-phantom-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ModelStore::open(&dir).expect("open store");
    store.publish("only-model", &nan_network(), "phantom").expect("publish");

    let config = SchedConfig {
        max_batch: 2,
        check_finite: true,
        unhealthy_threshold: THRESHOLD,
        ..SchedConfig::default()
    };
    ffdl_telemetry::set_enabled(true);
    let sched = Scheduler::start(&store, &[TenantSpec::new("solo", "only-model")], &config)
        .expect("start");
    for id in 0..REQUESTS {
        let sample = Tensor::from_fn(&[16], |i| (id as usize * 16 + i) as f32 * 0.01);
        sched.submit(0, id, sample).expect("submit");
    }
    let report = sched.finish().expect("finish").serve;
    ffdl_telemetry::set_enabled(false);
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(report.quarantines, 1);
    assert_eq!(report.auto_rollbacks, 0, "nothing healthy to roll back to");
    assert_eq!(report.model_generation, 1, "the slot never moved");
    assert_eq!(report.telemetry.counter("ffdl.sched.quarantines"), Some(1));
    assert_eq!(report.telemetry.counter("ffdl.sched.auto_rollbacks"), Some(0));

    // Not dark: every request — including those after the quarantine —
    // ends as a typed unhealthy-model failure naming generation 1.
    assert!(report.responses.is_empty());
    assert_eq!(report.failures.len(), REQUESTS as usize);
    for failure in &report.failures {
        assert_eq!(failure.kind, FailureKind::UnhealthyModel);
        assert!(matches!(
            failure.error(),
            ServeError::UnhealthyModel { generation: 1, .. }
        ));
    }
}
