package netsim_test

import (
	"fmt"
	"testing"

	"chicsim/internal/kernelbench"
	"chicsim/internal/netsim"
)

// Reflow cost per flow admission+cancellation at increasing levels of
// concurrency (bodies shared with cmd/kernelbench). The flow counts
// bracket the default scenario (tens of concurrent flows) and the
// congested 100k+ events/s campaigns ROADMAP targets.
func benchReflow(b *testing.B, policy netsim.SharingPolicy) {
	for _, flows := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("flows=%d", flows), kernelbench.Reflow(policy, flows))
	}
}

// The sites=1000 entry runs on ScaleConfig's tree, where a change point
// touches only the few flows sharing its links.
func BenchmarkReflowEqualShare(b *testing.B) {
	benchReflow(b, netsim.EqualShare)
	b.Run("sites=1000/flows=1000", kernelbench.ReflowGrid)
}

func BenchmarkReflowMaxMin(b *testing.B) { benchReflow(b, netsim.MaxMinFair) }
