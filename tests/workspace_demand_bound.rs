//! The workspace keeps only the buffers it lent out.
//!
//! The tensor drop hook hands the global workspace every buffer of
//! `MIN_POOLED_LEN` or more elements, including buffers allocated outside
//! it: `ImageBatcher` builds each batch and `SyntheticImages` each image
//! with `Vec::with_capacity`, at capacities that are not powers of two.
//! A pool that kept all of them would grow by a few buffers per training
//! step until its per-class byte budgets filled. This test pins the
//! demand bound end to end: after warm-up, a tiny-ResNet training loop
//! fed by `ImageBatcher` leaves the number of pooled buffers unchanged.
//!
//! It has its own test binary because the workspace is process-global,
//! and runs on a one-thread pool so every step frees the same buffers in
//! the same order.

use caraml_suite::caraml_data::{ImageBatcher, SyntheticImages};
use caraml_suite::caraml_models::{ResnetConfig, ResnetModel};
use caraml_suite::caraml_tensor::optim::{Optimizer, Sgd};
use caraml_suite::caraml_tensor::workspace;

#[test]
fn pooled_buffers_stay_flat_over_warm_resnet_steps() {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    pool.install(|| {
        // 3×16×16 images (768 floats) in batches of 4 (3072 floats).
        let images = SyntheticImages::new(3, 4, 3, 16, 16);
        let mut batches = ImageBatcher::new(images, 64, 4, 5);
        let model = ResnetModel::new(ResnetConfig::tiny(4, 16), 1);
        let params = model.parameters();
        let mut opt = Sgd::with_momentum(0.05, 0.9);
        let mut step = || {
            let (x, labels) = batches.next_batch();
            model.loss(&x, &labels).backward();
            opt.step(&params);
        };
        for _ in 0..5 {
            step();
        }
        let ws = workspace::global();
        let (warm, warm_stats) = (ws.pooled(), ws.stats());
        for i in 0..200 {
            step();
            assert_eq!(ws.pooled(), warm, "pooled buffers after warm step {i}");
        }
        assert_eq!(ws.stats().allocations, warm_stats.allocations);
    });
}
