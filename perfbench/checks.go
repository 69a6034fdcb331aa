package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"chicsim/internal/core"
)

// decompTol is the relative tolerance on the response-time decomposition:
// the four components are means over the same jobs, so they sum to the
// mean response up to float rounding.
const decompTol = 1e-9

// checkRun applies the per-simulation checks. They hold for any correct
// run of any configuration, so a deliberate change to the program's
// results does not trip them.
func checkRun(res core.Results, err error, totalJobs int) error {
	if err != nil {
		return err
	}
	if !res.Completed {
		return errors.New("run did not complete")
	}
	if res.JobsDone != totalJobs {
		return fmt.Errorf("%d of %d jobs done", res.JobsDone, totalJobs)
	}
	sum := res.AvgDispatchWaitSec + res.AvgDataWaitSec + res.AvgCPUWaitSec + res.AvgExecSec
	if d := math.Abs(sum - res.AvgResponseSec); d > decompTol*math.Max(1, math.Abs(res.AvgResponseSec)) {
		return fmt.Errorf("response decomposition sums to %v, mean response is %v", sum, res.AvgResponseSec)
	}
	return nil
}

// resultsJSON is the byte form repetitions of one simulation must agree on.
func resultsJSON(res core.Results) []byte {
	b, err := json.Marshal(res)
	if err != nil {
		// Results is plain data; failing to marshal it is a bug here.
		panic(err)
	}
	return b
}

// unobservedJSON drops what observers legitimately change: SimEvents
// counts the observers' own engine ticks.
func unobservedJSON(res core.Results) []byte {
	res.SimEvents = 0
	return resultsJSON(res)
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// tally counts simulations attempted and failed, keeping the first few
// failure reasons for the report.
type tally struct {
	attempted, failed int
	reasons           []string
}

func (t *tally) record(what string, err error) {
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if len(t.reasons) < 5 {
		t.reasons = append(t.reasons, what+": "+err.Error())
	}
}
