//! The stages of the data path, in the order a run drives them.

use mphpc_errors::MphpcError;

/// Turns one of the program's errors into the harness's: what was being done,
/// then the error's whole cause chain.
pub(crate) fn chain(what: &'static str) -> impl Fn(MphpcError) -> String {
    move |e| format!("{what}: {}", e.render_chain())
}

pub mod collect;
pub mod sched;
pub mod serve;
pub mod setup;
pub mod train;
