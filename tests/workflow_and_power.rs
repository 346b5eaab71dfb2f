//! Integration tests of the automation and measurement layers working
//! together: JUBE benchmarks on the Slurm simulator producing jpwr-backed
//! energy numbers, exactly the paper's `jube run` → `jube result` flow.

use caraml_suite::caraml::suite::{
    llm_benchmark_ipu, llm_benchmark_nvidia_amd, resnet50_benchmark,
};
use caraml_suite::jube::{Benchmark, JobState, SlurmSim};

fn tags(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

#[test]
fn full_llm_flow_on_slurm_for_gh200() {
    // One shard per workpackage: each workpackage is one Slurm job.
    let slurm = SlurmSim::new(2);
    let bench = llm_benchmark_nvidia_amd();
    let jobs = bench.workpackages(&tags(&["GH200"])).len();
    let result = bench
        .run_sharded(&slurm, &tags(&["GH200"]), jobs, 1)
        .unwrap();
    assert_eq!(result.failures(), 0);
    // Every job completed on the partition.
    let records = slurm.records();
    assert_eq!(records.len(), result.workpackages.len());
    assert!(records.iter().all(|r| r.state == JobState::Completed));
    // The result table carries the paper's FOM columns.
    let table = result.table(&["global_batch", "tokens_per_s_per_gpu", "energy_wh_per_gpu"]);
    assert!(table.numeric_column("tokens_per_s_per_gpu").is_some());
    let ascii = table.to_ascii();
    assert!(ascii.contains("tokens_per_s_per_gpu"));
}

#[test]
fn ipu_flow_produces_table2_columns() {
    let result = llm_benchmark_ipu()
        .run(&tags(&["117M", "synthetic"]))
        .unwrap();
    assert_eq!(result.failures(), 0);
    let mut table = result.table(&[
        "global_batch_tokens",
        "tokens_per_s",
        "energy_wh_per_ipu",
        "tokens_per_wh",
    ]);
    table.sort_by_column("global_batch_tokens");
    let tput = table.numeric_column("tokens_per_s").unwrap();
    // Monotone, saturating toward ~194 tokens/s (Table II).
    assert!(tput_monotone(&tput));
    assert!(*tput.last().unwrap() > 190.0 && *tput.last().unwrap() < 195.0);
}

fn tput_monotone(v: &[f64]) -> bool {
    v.windows(2).all(|w| w[1] > w[0])
}

#[test]
fn resnet_flow_reports_oom_through_the_stack() {
    let result = resnet50_benchmark().run(&tags(&["A100"])).unwrap();
    // The A100's 40 GB OOM at batch 2048 travels from the memory model
    // through the step error into the workpackage record.
    let failed: Vec<_> = result
        .workpackages
        .iter()
        .filter(|w| w.error.is_some())
        .collect();
    assert_eq!(failed.len(), 1);
    assert_eq!(failed[0].params["global_batch"], "2048");
    assert!(failed[0].error.as_ref().unwrap().contains("out of memory"));
    // And the rendered table marks it.
    let table = result.table(&["global_batch", "images_per_s", "error"]);
    assert!(table.to_ascii().contains("out of memory"));
}

#[test]
fn tag_selection_switches_systems_end_to_end() {
    for (tag, expect) in [("A100", "A100"), ("WAIH100", "WestAI"), ("JEDI", "JEDI")] {
        let result = resnet50_benchmark().run(&tags(&[tag])).unwrap();
        let wp = result
            .workpackages
            .iter()
            .find(|w| w.error.is_none())
            .unwrap();
        assert!(
            wp.values["platform"].contains(expect),
            "tag {tag} -> platform {}",
            wp.values["platform"]
        );
    }
}

#[test]
fn energy_columns_are_physically_plausible() {
    let result = resnet50_benchmark().run(&tags(&["GH200"])).unwrap();
    for wp in result.workpackages.iter().filter(|w| w.error.is_none()) {
        let wh: f64 = wp.values["energy_wh_per_epoch"].parse().unwrap();
        let imgs_s: f64 = wp.values["images_per_s"].parse().unwrap();
        // One ImageNet epoch at this throughput must cost between the
        // idle and TDP envelope of a GH200.
        let epoch_h = 1_281_167.0 / imgs_s / 3600.0;
        let mean_w = wh / epoch_h;
        assert!(
            mean_w > 90.0 && mean_w <= 700.0,
            "implausible mean power {mean_w:.0} W"
        );
    }
}

#[test]
fn concurrent_benchmarks_share_a_partition() {
    // Two different suites submitted to the same Slurm partition must
    // both complete (no deadlock, no cross-talk).
    // One shard per workpackage: each workpackage is one Slurm job.
    let slurm = SlurmSim::new(3);
    let run = |bench: Benchmark, tags: &[String]| {
        let jobs = bench.workpackages(tags).len();
        bench.run_sharded(&slurm, tags, jobs, 1).unwrap()
    };
    let r1 = run(resnet50_benchmark(), &tags(&["GC200"]));
    let r2 = run(llm_benchmark_ipu(), &tags(&[]));
    assert_eq!(r1.failures(), 0);
    assert_eq!(r2.failures(), 0);
    assert_eq!(
        slurm.records().len(),
        r1.workpackages.len() + r2.workpackages.len()
    );
}
