package core

import (
	"fmt"
	"sort"

	"chicsim/internal/rng"
	"chicsim/internal/scheduler"
	"chicsim/internal/scheduler/ds"
	"chicsim/internal/scheduler/es"
	"chicsim/internal/scheduler/feedback"
	"chicsim/internal/scheduler/ls"
)

// NewExternal instantiates an External Scheduler by name. The source seeds
// the algorithm's tie-breaking/choice stream. avgComputeSec and avgCEs feed
// the JobBestCost estimator.
func NewExternal(name string, src *rng.Source, avgComputeSec, avgCEs float64) (scheduler.External, error) {
	switch name {
	case "JobRandom":
		return es.Random{Src: src}, nil
	case "JobLeastLoaded":
		return &es.LeastLoaded{Src: src}, nil
	case "JobDataPresent":
		return &es.DataPresent{Src: src}, nil
	case "JobLocal":
		return es.Local{}, nil
	case "JobBestCost":
		return &es.BestCost{Src: src, AvgComputeSec: avgComputeSec, CEsPerSite: avgCEs}, nil
	case "JobAdaptive":
		return &es.Adaptive{Src: src, PullFraction: 0.5}, nil
	case "JobRegional":
		return &es.Regional{Src: src}, nil
	case "JobFeedback":
		// Constructed without a tracker: nil-safe telemetry reads make the
		// standalone policy behave exactly like JobDataPresent. The
		// simulation attaches its tracker and Config.Feedback after
		// construction (see wireFeedback in sim.go).
		return &feedback.ES{Src: src, AvgComputeSec: avgComputeSec, CEsPerSite: avgCEs}, nil
	default:
		return nil, fmt.Errorf("core: unknown external scheduler %q (have %v)", name, ExternalNames())
	}
}

// NewBatch instantiates a batch External Scheduler by name.
func NewBatch(name string, avgComputeSec float64) (scheduler.Batch, error) {
	switch name {
	case "BatchMinMin":
		return es.BatchMinMin{AvgComputeSec: avgComputeSec}, nil
	case "BatchMaxMin":
		return es.BatchMaxMin{AvgComputeSec: avgComputeSec}, nil
	case "BatchSufferage":
		return es.BatchSufferage{AvgComputeSec: avgComputeSec}, nil
	default:
		return nil, fmt.Errorf("core: unknown batch scheduler %q (have %v)", name, BatchNames())
	}
}

// BatchNames lists the available batch heuristics.
func BatchNames() []string { return []string{"BatchMinMin", "BatchMaxMin", "BatchSufferage"} }

// NewLocal instantiates a Local Scheduler by name.
func NewLocal(name string) (scheduler.Local, error) {
	switch name {
	case "FIFO":
		return ls.FIFO{}, nil
	case "SJF":
		return ls.SJF{}, nil
	case "LIFO":
		return ls.LIFO{}, nil
	default:
		return nil, fmt.Errorf("core: unknown local scheduler %q (have %v)", name, LocalNames())
	}
}

// NewDataset instantiates a Dataset Scheduler by name.
func NewDataset(name string, src *rng.Source) (scheduler.Dataset, error) {
	switch name {
	case "DataDoNothing":
		return ds.DoNothing{}, nil
	case "DataRandom":
		return &ds.Random{Src: src}, nil
	case "DataLeastLoaded":
		return &ds.LeastLoaded{Src: src}, nil
	case "DataCascade":
		return &ds.Cascade{Src: src}, nil
	case "DataBestClient":
		return &ds.BestClient{Src: src}, nil
	case "DataFeedback":
		// Tracker and params attached by the simulation (see NewExternal's
		// JobFeedback case); standalone it matches DataLeastLoaded.
		return &feedback.DS{Src: src}, nil
	default:
		return nil, fmt.Errorf("core: unknown dataset scheduler %q (have %v)", name, DatasetNames())
	}
}

// ExternalNames lists the available ES algorithms. The first four are the
// paper's; the rest are extensions.
func ExternalNames() []string {
	return []string{"JobRandom", "JobLeastLoaded", "JobDataPresent", "JobLocal", "JobBestCost", "JobAdaptive", "JobRegional", "JobFeedback"}
}

// PaperExternalNames lists the paper's four ES algorithms in figure order.
func PaperExternalNames() []string {
	return []string{"JobRandom", "JobLeastLoaded", "JobDataPresent", "JobLocal"}
}

// LocalNames lists the available LS algorithms (FIFO is the paper's).
func LocalNames() []string { return []string{"FIFO", "SJF", "LIFO"} }

// DatasetNames lists the available DS algorithms. The first three are the
// paper's; the rest are extensions.
func DatasetNames() []string {
	return []string{"DataDoNothing", "DataRandom", "DataLeastLoaded", "DataCascade", "DataBestClient", "DataFeedback"}
}

// PaperDatasetNames lists the paper's three DS algorithms in figure order.
func PaperDatasetNames() []string {
	return []string{"DataDoNothing", "DataRandom", "DataLeastLoaded"}
}

// AllNames returns every registered algorithm name, sorted, for help text.
func AllNames() []string {
	var out []string
	out = append(out, ExternalNames()...)
	out = append(out, LocalNames()...)
	out = append(out, DatasetNames()...)
	sort.Strings(out)
	return out
}
