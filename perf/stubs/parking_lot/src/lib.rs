//! Offline stand-in for `parking_lot`. `mphpc-par` and `mphpc-sched` list the
//! crate as a dependency but call nothing in it, so the stand-in is empty.
