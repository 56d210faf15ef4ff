//! Global string-interner hygiene across a sweep (ISSUE 6 satellite).
//!
//! The interner is a process-global, so this suite lives in its own
//! integration binary: no other test's interned strings can mask (or
//! be masked by) what this one measures.

use pd_core::{Experiment, Profile};
use pd_util::intern;

/// A multi-arm sweep interns each arm's domain set while its frames are
/// alive; once the runs are dropped, `purge_unreferenced` reclaims the
/// table instead of letting it grow for the process lifetime.
#[test]
fn sweeps_purge_unreferenced_interned_strings() {
    let runs = Experiment::builder()
        .scenario("crowd-sweep")
        .profile(Profile::Smoke)
        .seed(7)
        .run_sweep()
        .expect("sweep runs");
    assert!(runs.len() > 1, "crowd-sweep must have multiple arms");
    let alive = intern::interned_count();
    assert!(alive > 0, "analysis frames must intern domains");

    // While the arms' engines (and the frames in their memo) are alive,
    // every interned domain is still referenced: purging now is a no-op.
    assert_eq!(
        intern::purge_unreferenced(),
        0,
        "live frames must keep their interned strings"
    );
    assert_eq!(intern::interned_count(), alive);

    drop(runs);
    let purged = intern::purge_unreferenced();
    assert!(
        purged > 0,
        "dropping the sweep must leave purgeable strings ({alive} interned)"
    );
    assert!(
        intern::interned_count() < alive,
        "the interner table must shrink after the purge"
    );
}
