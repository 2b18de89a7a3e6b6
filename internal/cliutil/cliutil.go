// Package cliutil holds the small pieces the command-line front ends
// (cmd/iochar, cmd/mrrun, cmd/bench, cmd/chaos) share: validation of the
// numeric testbed flags, and stderr reporting of capacity-clamp warnings
// raised during provisioning.
//
// Validation exists because the library's withDefaults policy — reset any
// nonsense value to the documented default — is right for programmatic use
// but wrong at the CLI: `-scale -4096` silently running the (enormous)
// default-scale experiment looks exactly like a hang.
package cliutil

import (
	"fmt"
	"io"
	"sync"
	"time"

	"iochar/internal/disk"
)

// ValidateRunFlags checks the numeric knobs common to the runner CLIs.
// scale must be positive; slaves must be positive; frac must lie in (0, 1];
// interval must be non-negative (0 selects the documented auto default);
// parallel must be non-negative (0 selects GOMAXPROCS).
func ValidateRunFlags(scale int64, slaves int, frac float64, interval time.Duration, parallel int) error {
	if scale <= 0 {
		return fmt.Errorf("-scale must be positive, got %d", scale)
	}
	if slaves <= 0 {
		return fmt.Errorf("-slaves must be positive, got %d", slaves)
	}
	if frac <= 0 || frac > 1 {
		return fmt.Errorf("-input-fraction must be in (0,1], got %v", frac)
	}
	if interval < 0 {
		return fmt.Errorf("-sample-interval must be non-negative (0 = auto), got %v", interval)
	}
	if parallel < 0 {
		return fmt.Errorf("-parallel must be non-negative (0 = GOMAXPROCS), got %d", parallel)
	}
	return nil
}

// ValidateTopologyFlags checks the rack-topology knobs. racks must be
// positive (1 = the flat single-rack network, byte-identical to the
// pre-rack behaviour); uplinkMB is the per-rack ToR uplink bandwidth in
// MB/s and must be non-negative (0 = match the NIC rate, i.e. a
// non-blocking fabric). The racks-vs-slaves bound (every rack must hold a
// slave) is enforced at provisioning time, where both values are known.
func ValidateTopologyFlags(racks int, uplinkMB int64) error {
	if racks < 1 {
		return fmt.Errorf("-racks must be positive, got %d", racks)
	}
	if uplinkMB < 0 {
		return fmt.Errorf("-uplink must be non-negative MB/s (0 = NIC rate), got %d", uplinkMB)
	}
	if uplinkMB > 0 && racks == 1 {
		return fmt.Errorf("-uplink is meaningful only with -racks > 1 (a single rack has no uplinks)")
	}
	return nil
}

// WarnClamps subscribes to the disk package's capacity-clamp bus and prints
// each distinct warning once to w, prefixed with the tool name — the CLI
// surface for "your -scale is so large that capacity ratios no longer
// hold". It returns the unsubscribe function. Safe for concurrent
// notification (parallel suite cells provision concurrently).
func WarnClamps(w io.Writer, tool string) (unsubscribe func()) {
	var mu sync.Mutex
	seen := map[string]bool{}
	return disk.SubscribeScaleClamps(func(cw disk.ClampWarning) {
		msg := cw.String()
		mu.Lock()
		dup := seen[msg]
		seen[msg] = true
		mu.Unlock()
		if !dup {
			fmt.Fprintf(w, "%s: warning: %s\n", tool, msg)
		}
	})
}
