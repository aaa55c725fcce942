//! Machine-assignment strategies: implementations of the paper's
//! `Machine(j, i, M)` function (Algorithms 1–2).

use crate::cluster::Cluster;
use crate::job::{Job, N_MACHINES};
use mphpc_archsim::noise::derive_seed;

/// What a [`MachineAssigner::choose`] answer depends on besides the job and
/// the static machine configs. The engine reuses a job's answer until
/// something it reads changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Reads {
    /// Nothing else: a job's answer holds for the whole run.
    Nothing,
    /// The strategy's own counters, which only a start advances.
    Starts,
    /// Free capacity, which every start and completion changes.
    FreeCapacity,
}

/// A machine-assignment policy, `Send` so each can simulate on a thread of
/// its own. `choose` must be side-effect free with respect to queue
/// scanning (it may be called for jobs that do not start, once for many
/// scans, or not at all); stateful policies advance their counters in
/// `notify_started`, matching Algorithm 1 where `i` increments per `Start`.
pub trait MachineAssigner: Send {
    /// Pick a machine (Table-I index) for `job` given current cluster
    /// state.
    fn choose(&mut self, job: &Job, cluster: &Cluster) -> usize;
    /// Observe that `job` started on `machine`.
    fn notify_started(&mut self, _job: &Job, _machine: usize) {}
    /// What `choose` reads; the default claims the most.
    fn reads(&self) -> Reads {
        Reads::FreeCapacity
    }
    /// Display name (figure labels).
    fn name(&self) -> &'static str;
}

/// Rotate over all machines, advancing per started job.
#[derive(Debug, Default)]
pub struct RoundRobin {
    counter: usize,
}

impl RoundRobin {
    /// Fresh rotation starting at machine 0.
    pub fn new() -> Self {
        Self::default()
    }
}

impl MachineAssigner for RoundRobin {
    fn choose(&mut self, job: &Job, cluster: &Cluster) -> usize {
        // Skip machines that could never run the job.
        for off in 0..N_MACHINES {
            let m = (self.counter + off) % N_MACHINES;
            if cluster.can_ever_run(m, job.nodes_required) {
                return m;
            }
        }
        self.counter % N_MACHINES
    }

    fn notify_started(&mut self, _job: &Job, _machine: usize) {
        self.counter = (self.counter + 1) % N_MACHINES;
    }

    fn reads(&self) -> Reads {
        Reads::Starts
    }

    fn name(&self) -> &'static str {
        "Round-Robin"
    }
}

/// Uniform random machine, deterministic per (seed, job id).
#[derive(Debug)]
pub struct RandomAssign {
    seed: u64,
}

impl RandomAssign {
    /// Seeded random assigner.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }
}

impl MachineAssigner for RandomAssign {
    fn choose(&mut self, job: &Job, cluster: &Cluster) -> usize {
        let draw = derive_seed(self.seed, &[job.id]) as usize % N_MACHINES;
        for off in 0..N_MACHINES {
            let m = (draw + off) % N_MACHINES;
            if cluster.can_ever_run(m, job.nodes_required) {
                return m;
            }
        }
        draw
    }

    fn reads(&self) -> Reads {
        Reads::Nothing
    }

    fn name(&self) -> &'static str {
        "Random"
    }
}

/// "Typical user behaviour" (§VII): GPU-enabled applications round-robin
/// over the GPU systems, CPU-only applications over the CPU systems.
#[derive(Debug, Default)]
pub struct UserRoundRobin {
    gpu_counter: usize,
    cpu_counter: usize,
}

impl UserRoundRobin {
    /// Fresh strategy.
    pub fn new() -> Self {
        Self::default()
    }

    /// The machines with (`gpu`) or without GPUs, in Table-I order, on the
    /// stack: `choose` runs once per backfill candidate.
    fn group(cluster: &Cluster, gpu: bool) -> ([usize; N_MACHINES], usize) {
        let mut group = [0; N_MACHINES];
        let mut len = 0;
        for (m, config) in cluster.configs().iter().enumerate() {
            if config.has_gpu == gpu {
                group[len] = m;
                len += 1;
            }
        }
        (group, len)
    }
}

impl MachineAssigner for UserRoundRobin {
    fn choose(&mut self, job: &Job, cluster: &Cluster) -> usize {
        let (group, len) = Self::group(cluster, job.gpu_capable);
        let group = &group[..len];
        let counter = if job.gpu_capable {
            self.gpu_counter
        } else {
            self.cpu_counter
        };
        for off in 0..group.len() {
            let m = group[(counter + off) % group.len()];
            if cluster.can_ever_run(m, job.nodes_required) {
                return m;
            }
        }
        group[counter % group.len()]
    }

    fn notify_started(&mut self, job: &Job, _machine: usize) {
        if job.gpu_capable {
            self.gpu_counter += 1;
        } else {
            self.cpu_counter += 1;
        }
    }

    fn reads(&self) -> Reads {
        Reads::Starts
    }

    fn name(&self) -> &'static str {
        "User+RR"
    }
}

/// Algorithm 2: consult the model's predicted RPV and pick the fastest
/// machine with capacity free *now*; if every machine is full, reserve on
/// the overall-fastest one.
///
/// Note on the paper's pseudocode: Algorithm 2 writes `argmax rpv`, but
/// with RPVs defined as relative *runtimes* (the §IV example) the fastest
/// machine is the `argmin`; we implement the argmin, which is what makes
/// the strategy beneficial.
#[derive(Debug, Default)]
pub struct ModelBased;

impl ModelBased {
    /// Fresh strategy.
    pub fn new() -> Self {
        Self
    }

    fn pick(scores: &[f64; N_MACHINES], job: &Job, cluster: &Cluster) -> usize {
        let feasible = |m: usize| cluster.can_ever_run(m, job.nodes_required);
        // Fastest machine with capacity free right now.
        let mut best_now: Option<usize> = None;
        let mut best_any: Option<usize> = None;
        for m in 0..N_MACHINES {
            if !feasible(m) {
                continue;
            }
            if best_any.map_or(true, |b| scores[m] < scores[b]) {
                best_any = Some(m);
            }
            if cluster.can_start(m, job.nodes_required)
                && best_now.map_or(true, |b| scores[m] < scores[b])
            {
                best_now = Some(m);
            }
        }
        best_now.or(best_any).unwrap_or(0)
    }
}

impl MachineAssigner for ModelBased {
    fn choose(&mut self, job: &Job, cluster: &Cluster) -> usize {
        match &job.predicted_rpv {
            Some(rpv) => Self::pick(rpv, job, cluster),
            // No prediction available: behave like the true-runtime oracle
            // would be cheating, so fall back to machine 0 ordering.
            None => (0..N_MACHINES)
                .find(|&m| cluster.can_ever_run(m, job.nodes_required))
                .unwrap_or(0),
        }
    }

    fn name(&self) -> &'static str {
        "Model-based"
    }
}

/// Like [`ModelBased`] but consulting the *true* runtimes — the
/// perfect-information upper bound.
#[derive(Debug, Default)]
pub struct Oracle;

impl Oracle {
    /// Fresh strategy.
    pub fn new() -> Self {
        Self
    }
}

impl MachineAssigner for Oracle {
    fn choose(&mut self, job: &Job, cluster: &Cluster) -> usize {
        ModelBased::pick(&job.runtimes, job, cluster)
    }

    fn name(&self) -> &'static str {
        "Oracle"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::table1_cluster;
    use crate::cluster::tests::run;

    fn job(id: u64, gpu: bool) -> Job {
        Job {
            id,
            submit_time: 0.0,
            nodes_required: 1,
            gpu_capable: gpu,
            runtimes: [4.0, 2.0, 1.0, 3.0],
            predicted_rpv: Some([4.0, 2.0, 1.0, 3.0]),
        }
    }

    #[test]
    fn round_robin_rotates_on_start_only() {
        let cluster = Cluster::new(table1_cluster());
        let mut rr = RoundRobin::new();
        let j = job(1, false);
        assert_eq!(rr.choose(&j, &cluster), 0);
        assert_eq!(rr.choose(&j, &cluster), 0, "no start, no advance");
        rr.notify_started(&j, 0);
        assert_eq!(rr.choose(&j, &cluster), 1);
    }

    #[test]
    fn random_is_deterministic_per_job() {
        let cluster = Cluster::new(table1_cluster());
        let mut r = RandomAssign::new(7);
        let a = r.choose(&job(1, false), &cluster);
        assert_eq!(a, r.choose(&job(1, false), &cluster));
        // Across many jobs, all machines get used.
        let used: std::collections::HashSet<usize> = (0..100)
            .map(|i| r.choose(&job(i, false), &cluster))
            .collect();
        assert_eq!(used.len(), 4);
    }

    #[test]
    fn user_rr_respects_gpu_capability() {
        let cluster = Cluster::new(table1_cluster());
        let mut u = UserRoundRobin::new();
        for i in 0..10 {
            let g = u.choose(&job(i, true), &cluster);
            assert!(cluster.configs()[g].has_gpu, "GPU job on GPU machine");
            let c = u.choose(&job(i, false), &cluster);
            assert!(!cluster.configs()[c].has_gpu, "CPU job on CPU machine");
            u.notify_started(&job(i, true), g);
            u.notify_started(&job(i, false), c);
        }
    }

    #[test]
    fn user_rr_alternates_within_group() {
        let cluster = Cluster::new(table1_cluster());
        let mut u = UserRoundRobin::new();
        let first = u.choose(&job(0, true), &cluster);
        u.notify_started(&job(0, true), first);
        let second = u.choose(&job(1, true), &cluster);
        assert_ne!(first, second, "two GPU machines alternate");
    }

    #[test]
    fn model_based_picks_predicted_fastest() {
        let cluster = Cluster::new(table1_cluster());
        let mut m = ModelBased::new();
        assert_eq!(m.choose(&job(1, false), &cluster), 2, "lowest rpv wins");
    }

    #[test]
    fn model_based_falls_back_when_fastest_full() {
        let mut cluster = Cluster::new(table1_cluster());
        // Fill Lassen (795 nodes).
        cluster.start(2, 99, 100.0, run(795, 0)).unwrap();
        let mut m = ModelBased::new();
        assert_eq!(
            m.choose(&job(1, false), &cluster),
            1,
            "next-fastest with free nodes"
        );
    }

    #[test]
    fn model_based_reserves_on_fastest_when_all_full() {
        let mut cluster = Cluster::new(table1_cluster());
        for (m, cfg) in table1_cluster().iter().enumerate() {
            let full = run(cfg.total_nodes, m as u64);
            cluster.start(m, 90 + m as u64, 100.0, full).unwrap();
        }
        let mut m = ModelBased::new();
        assert_eq!(m.choose(&job(1, false), &cluster), 2, "reserve on fastest");
    }

    #[test]
    fn oracle_uses_true_runtimes() {
        let cluster = Cluster::new(table1_cluster());
        let mut o = Oracle::new();
        let mut j = job(1, false);
        j.predicted_rpv = Some([1.0, 9.0, 9.0, 9.0]); // wrong prediction
        assert_eq!(o.choose(&j, &cluster), 2, "oracle ignores predictions");
    }
}
