//! Regression: a response's generation label must never detach from
//! the weights that computed it — not even when a swap lands before a
//! worker thread has run for the first time.
//!
//! `start(&a)` followed at once by `swap_model(&b)` used to leave every
//! worker holding an engine cloned from `a` while seeding its
//! generation from the live counter (already 2): all responses came
//! back tagged generation 2 but computed on generation-1 weights, and
//! the workers never adopted `b`.

use ffdl_deploy::parse_architecture;
use ffdl_nn::Network;
use ffdl_stream::{StreamConfig, StreamEngine, StreamServer};
use ffdl_tensor::Tensor;

const ARCH: &str = "input 8\ncirculant_gru 16 block=4\nfc 4\nsoftmax\n";
const SESSIONS: u64 = 8;
const TRIALS: usize = 50;

fn network(seed: u64) -> Network {
    parse_architecture(ARCH, seed).expect("arch").network
}

fn token(session: u64) -> Tensor {
    Tensor::from_fn(&[8], |i| ((session as usize * 131 + i) as f32 * 0.083).sin())
}

#[test]
fn swap_before_first_step_never_mislabels_a_generation() {
    let (a, b) = (network(21), network(4242));
    let replay_on = |net: &Network, session: u64| {
        StreamEngine::new(network_clone(net), false)
            .replay(&[token(session)])
            .expect("replay")
            .remove(0)
    };
    let config = StreamConfig { workers: 4, ..Default::default() };
    let mut tagged_two = 0;
    for _ in 0..TRIALS {
        let server = StreamServer::start(&a, &config).expect("start");
        assert_eq!(server.swap_model(&b).expect("swap"), 2);
        for session in 0..SESSIONS {
            server.open_session(session).expect("open");
            server.step(session, session, token(session)).expect("step");
        }
        let report = server.finish().expect("finish");
        assert_eq!(report.serve.responses.len(), SESSIONS as usize);
        for response in &report.serve.responses {
            let weights = match response.generation {
                1 => &a,
                2 => &b,
                g => panic!("impossible generation {g}"),
            };
            assert_eq!(
                response.prediction,
                replay_on(weights, response.id),
                "session {} tagged generation {} was not computed on that generation's weights",
                response.id,
                response.generation
            );
            tagged_two += usize::from(response.generation == 2);
        }
    }
    // The swap returned before any step was submitted, so the new
    // generation must actually be adopted.
    assert!(tagged_two > 0, "no worker ever adopted generation 2");
}

fn network_clone(net: &Network) -> Network {
    ffdl_nn::clone_network(net, &ffdl_core::full_registry()).expect("clone")
}
