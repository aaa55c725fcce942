//! Workflow (DAG) scheduling — the use case the paper's motivation opens
//! with: "an increasing number of scientific workloads are being expressed
//! as workflows with sets of computational tasks and dependencies between
//! them", where "each task may be better suited for a different
//! architecture".
//!
//! A [`Workflow`] is a DAG of tasks (each an ordinary [`Job`] shape); a
//! task becomes *eligible* when all of its predecessors have completed.
//! [`simulate_workflows`] lowers every workflow into one job set with
//! dependency edges and runs the FCFS+EASY engine's native dependency
//! support ([`crate::engine::simulate_full`]): eligible tasks join
//! the global queue the moment their last dependency finishes and contend
//! with every other running workflow, so cross-architecture placement
//! decisions propagate along the critical path — a task placed on a slow
//! machine delays every successor.

use crate::engine::{simulate_full, SimConfig};
use crate::job::{Job, N_MACHINES};
use crate::metrics::JobRecord;
use crate::strategy::MachineAssigner;
use mphpc_errors::MphpcError;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One task of a workflow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Task {
    /// Task id, unique within its workflow.
    pub id: u32,
    /// Ids of tasks that must complete before this one may start.
    pub deps: Vec<u32>,
    /// Nodes required.
    pub nodes_required: u32,
    /// GPU capability of the task's application.
    pub gpu_capable: bool,
    /// True runtime on each machine (Table-I order).
    pub runtimes: [f64; N_MACHINES],
    /// Predicted RPV for the model-based strategy.
    pub predicted_rpv: Option<[f64; N_MACHINES]>,
}

/// A directed acyclic graph of tasks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workflow {
    /// Submission time of the workflow (its source tasks).
    pub submit_time: f64,
    /// Tasks; dependencies refer to ids within this vector.
    pub tasks: Vec<Task>,
}

impl Workflow {
    /// Validate: ids unique, dependencies resolvable, graph acyclic.
    pub fn validate(&self) -> Result<(), MphpcError> {
        let ids: HashMap<u32, usize> = self
            .tasks
            .iter()
            .enumerate()
            .map(|(i, t)| (t.id, i))
            .collect();
        if ids.len() != self.tasks.len() {
            return Err(MphpcError::InvalidJob("duplicate task ids".into()));
        }
        for t in &self.tasks {
            for d in &t.deps {
                if !ids.contains_key(d) {
                    return Err(MphpcError::InvalidJob(format!(
                        "task {} depends on unknown task {d}",
                        t.id
                    )));
                }
                if *d == t.id {
                    return Err(MphpcError::InvalidJob(format!(
                        "task {} depends on itself",
                        t.id
                    )));
                }
            }
        }
        // Kahn's algorithm to detect cycles.
        let mut indegree: HashMap<u32, usize> =
            self.tasks.iter().map(|t| (t.id, t.deps.len())).collect();
        let mut ready: Vec<u32> = indegree
            .iter()
            .filter(|(_, &d)| d == 0)
            .map(|(&id, _)| id)
            .collect();
        let mut visited = 0;
        while let Some(id) = ready.pop() {
            visited += 1;
            for t in &self.tasks {
                if t.deps.contains(&id) {
                    let e = indegree.get_mut(&t.id).expect("id known");
                    *e -= 1;
                    if *e == 0 {
                        ready.push(t.id);
                    }
                }
            }
        }
        if visited != self.tasks.len() {
            return Err(MphpcError::InvalidJob("workflow graph has a cycle".into()));
        }
        Ok(())
    }

    /// Lower bound on the workflow's span: the critical path assuming every
    /// task runs on its fastest machine with no queueing.
    pub fn critical_path_seconds(&self) -> f64 {
        let mut finish: HashMap<u32, f64> = HashMap::new();
        // Tasks are processed in dependency order via fixpoint iteration
        // (valid because validate() guarantees acyclicity).
        let mut remaining: Vec<&Task> = self.tasks.iter().collect();
        while !remaining.is_empty() {
            let before = remaining.len();
            remaining.retain(|t| {
                if t.deps.iter().all(|d| finish.contains_key(d)) {
                    let start = t.deps.iter().map(|d| finish[d]).fold(0.0f64, f64::max);
                    let best = t.runtimes.iter().cloned().fold(f64::INFINITY, f64::min);
                    finish.insert(t.id, start + best);
                    false
                } else {
                    true
                }
            });
            assert!(remaining.len() < before, "cycle despite validation");
        }
        finish.values().cloned().fold(0.0, f64::max)
    }
}

/// Results of a workflow-scheduling simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkflowSimResult {
    /// Underlying per-task engine result of the final wave.
    pub strategy: &'static str,
    /// Time from first workflow submission to last task completion.
    pub makespan: f64,
    /// Mean workflow span (submission → last task completion), the
    /// user-facing turnaround metric.
    pub mean_workflow_span: f64,
    /// Per-task records keyed by (workflow index, task id).
    pub task_records: HashMap<(usize, u32), JobRecord>,
}

/// Simulate a set of workflows under a machine-assignment strategy.
///
/// All tasks of all workflows are lowered into one dependency-annotated
/// job set and simulated in a single discrete-event run, so tasks of
/// different workflows (and different DAG depths) genuinely contend for
/// nodes.
pub fn simulate_workflows(
    workflows: &[Workflow],
    strategy: &mut dyn MachineAssigner,
    config: &SimConfig,
) -> Result<WorkflowSimResult, MphpcError> {
    for (wi, w) in workflows.iter().enumerate() {
        w.validate()
            .map_err(|e| e.context(format!("workflow {wi}")))?;
    }
    if workflows.is_empty() {
        return Ok(WorkflowSimResult {
            strategy: strategy.name(),
            makespan: 0.0,
            mean_workflow_span: 0.0,
            task_records: HashMap::new(),
        });
    }

    // Global job ids encode (workflow, task); job indices are assigned in
    // iteration order so dependency edges can reference them directly.
    let encode = |wi: usize, tid: u32| ((wi as u64) << 32) | tid as u64;
    let decode = |id: u64| ((id >> 32) as usize, id as u32);

    let mut jobs: Vec<Job> = Vec::new();
    let mut deps: Vec<Vec<usize>> = Vec::new();
    let mut index_of: HashMap<(usize, u32), usize> = HashMap::new();
    for (wi, w) in workflows.iter().enumerate() {
        for t in &w.tasks {
            index_of.insert((wi, t.id), jobs.len());
            jobs.push(Job {
                id: encode(wi, t.id),
                submit_time: w.submit_time,
                nodes_required: t.nodes_required,
                gpu_capable: t.gpu_capable,
                runtimes: t.runtimes,
                predicted_rpv: t.predicted_rpv,
            });
            deps.push(Vec::new()); // filled below once all indices exist
        }
    }
    for (wi, w) in workflows.iter().enumerate() {
        for t in &w.tasks {
            let ji = index_of[&(wi, t.id)];
            deps[ji] = t.deps.iter().map(|d| index_of[&(wi, *d)]).collect();
        }
    }

    let (result, _) = simulate_full(&jobs, &deps, strategy, config, None)?;
    let strategy_name = result.strategy;
    let mut completed: HashMap<(usize, u32), JobRecord> = HashMap::new();
    for rec in result.records {
        completed.insert(decode(rec.job_id), rec);
    }

    let first_submit = workflows
        .iter()
        .map(|w| w.submit_time)
        .fold(f64::INFINITY, f64::min);
    let last_end = completed.values().map(|r| r.end).fold(0.0f64, f64::max);
    let mean_span = workflows
        .iter()
        .enumerate()
        .map(|(wi, w)| {
            let end = w
                .tasks
                .iter()
                .map(|t| completed[&(wi, t.id)].end)
                .fold(0.0f64, f64::max);
            end - w.submit_time
        })
        .sum::<f64>()
        / workflows.len().max(1) as f64;

    Ok(WorkflowSimResult {
        strategy: strategy_name,
        makespan: last_end - first_submit,
        mean_workflow_span: mean_span,
        task_records: completed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{Oracle, RoundRobin};

    fn task(id: u32, deps: Vec<u32>, runtimes: [f64; 4]) -> Task {
        Task {
            id,
            deps,
            nodes_required: 1,
            gpu_capable: false,
            runtimes,
            predicted_rpv: Some(runtimes),
        }
    }

    fn pipeline(submit: f64) -> Workflow {
        // 0 -> 1 -> 2, plus a parallel branch 0 -> 3.
        Workflow {
            submit_time: submit,
            tasks: vec![
                task(0, vec![], [5.0, 10.0, 10.0, 10.0]),
                task(1, vec![0], [10.0, 2.0, 10.0, 10.0]),
                task(2, vec![1], [10.0, 10.0, 3.0, 10.0]),
                task(3, vec![0], [4.0, 4.0, 4.0, 4.0]),
            ],
        }
    }

    #[test]
    fn validation_catches_bad_graphs() {
        let mut w = pipeline(0.0);
        assert!(w.validate().is_ok());
        w.tasks[1].deps = vec![99];
        assert!(w.validate().is_err());
        let mut cyc = pipeline(0.0);
        cyc.tasks[0].deps = vec![2];
        assert!(cyc.validate().is_err());
        let mut dup = pipeline(0.0);
        dup.tasks[1].id = 0;
        assert!(dup.validate().is_err());
        let mut selfdep = pipeline(0.0);
        selfdep.tasks[0].deps = vec![0];
        assert!(selfdep.validate().is_err());
    }

    #[test]
    fn critical_path_lower_bound() {
        let w = pipeline(0.0);
        // Best-machine chain: 5 + 2 + 3 = 10 (branch 0->3 is shorter).
        assert!((w.critical_path_seconds() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn dependencies_are_respected() {
        let w = pipeline(0.0);
        let mut s = RoundRobin::new();
        let r = simulate_workflows(&[w.clone()], &mut s, &SimConfig::default()).unwrap();
        let rec = |tid: u32| r.task_records[&(0usize, tid)];
        assert!(rec(1).start >= rec(0).end - 1e-9, "1 after 0");
        assert!(rec(2).start >= rec(1).end - 1e-9, "2 after 1");
        assert!(rec(3).start >= rec(0).end - 1e-9, "3 after 0");
        assert!(r.makespan >= w.critical_path_seconds() - 1e-9);
    }

    #[test]
    fn oracle_tracks_critical_path_on_an_empty_cluster() {
        let w = pipeline(0.0);
        let mut s = Oracle::new();
        let r = simulate_workflows(&[w.clone()], &mut s, &SimConfig::default()).unwrap();
        // With perfect placement and no contention, the span equals the
        // critical path.
        assert!(
            (r.mean_workflow_span - w.critical_path_seconds()).abs() < 1e-6,
            "span {} vs critical path {}",
            r.mean_workflow_span,
            w.critical_path_seconds()
        );
    }

    #[test]
    fn placement_quality_shows_in_workflow_span() {
        // Each pipeline stage strongly prefers a different machine: the
        // oracle chains fast placements, round-robin does not.
        let workflows: Vec<Workflow> = (0..20).map(|i| pipeline(i as f64 * 0.1)).collect();
        let mut rr = RoundRobin::new();
        let mut oracle = Oracle::new();
        let r_rr = simulate_workflows(&workflows, &mut rr, &SimConfig::default()).unwrap();
        let r_o = simulate_workflows(&workflows, &mut oracle, &SimConfig::default()).unwrap();
        assert!(
            r_o.mean_workflow_span < r_rr.mean_workflow_span,
            "oracle {} vs round-robin {}",
            r_o.mean_workflow_span,
            r_rr.mean_workflow_span
        );
    }

    #[test]
    fn staggered_submissions_flow_through() {
        let workflows = vec![pipeline(0.0), pipeline(100.0)];
        let mut s = Oracle::new();
        let r = simulate_workflows(&workflows, &mut s, &SimConfig::default()).unwrap();
        let late_start = r.task_records[&(1usize, 0u32)].start;
        assert!(late_start >= 100.0, "second workflow cannot start early");
    }

    #[test]
    fn empty_workflow_set() {
        let mut s = RoundRobin::new();
        let r = simulate_workflows(&[], &mut s, &SimConfig::default()).unwrap();
        assert_eq!(r.makespan, 0.0);
        assert_eq!(r.task_records.len(), 0);
    }
}
