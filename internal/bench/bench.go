// Package bench holds the run fingerprint: a hash of one run's simulated
// outcome that is equal exactly when two runs computed the same thing. The
// goldens (testdata/golden_fingerprints.txt, golden_master.txt) pin it per
// workload, and benchmark/ folds it into core.outcome_hash32 — two
// revisions may only be speed-compared when their fingerprints match, since
// an optimization that changes simulated results is a bug, not a speedup.
package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"iochar/internal/core"
)

// Fingerprint hashes the deterministic outcome of one run: virtual wall
// time, kernel event count, the two disk groups' whole-run totals, and the
// per-job counters. It deliberately excludes anything host-dependent, and
// hashes the disk groups' totals rather than their sampled series
// (HDFS.AwaitMs and the rest).
func Fingerprint(rep *core.RunReport) string {
	h := sha256.New()
	fmt.Fprintf(h, "wall=%d events=%d\n", rep.Wall, rep.Events)
	fmt.Fprintf(h, "hdfs=%d,%d,%d,%d\n",
		rep.HDFS.TotalReadBytes, rep.HDFS.TotalWrittenBytes, rep.HDFS.TotalReads, rep.HDFS.TotalWrites)
	fmt.Fprintf(h, "mr=%d,%d,%d,%d\n",
		rep.MR.TotalReadBytes, rep.MR.TotalWrittenBytes, rep.MR.TotalReads, rep.MR.TotalWrites)
	for i, j := range rep.Jobs {
		fmt.Fprintf(h, "job=%d maps=%d reduces=%d in=%d out=%d spills=%d shuffle=%d runtime=%d\n",
			i, j.MapTasks, j.ReduceTasks, j.MapInputBytes, j.ReduceOutputBytes,
			j.Spills, j.ShuffleBytes, j.Runtime())
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
