package ops

import (
	"context"
	"fmt"

	"codecdb/internal/exec"
)

// SharedItem is one member query of a shared wave: the predicate plan
// bound to each part of the table (nil means select-all) plus the
// terminal it feeds.
type SharedItem struct {
	Plans []*Plan
	Term  TermKind
	Col   string
}

// RunShared executes every item against the table's parts in a single
// morsel pass (see scanParts): each page is fetched and decompressed once
// per wave regardless of how many queries share it, which is what makes a
// multi-user serving layer affordable — K concurrent scans cost ~one scan
// of IO plus K filter/terminal passes over morsels already hot in cache.
//
// It returns one result and one error slot per item — a member that fails
// to build or errors mid-scan fails alone; the others complete. The third
// return is fatal: pool submission failure, worker panic, or context
// cancellation, in which case per-item results are not meaningful.
func RunShared(ctx context.Context, parts []Part, pool *exec.Pool, items []SharedItem) ([]*PipelineResult, []error, error) {
	results := make([]*PipelineResult, len(items))
	errs := make([]error, len(items))
	if len(parts) == 0 {
		return results, errs, fmt.Errorf("ops: scan over a table with no parts")
	}
	var (
		members   [][]*pipeline
		memberIdx []int
	)
build:
	for i, it := range items {
		pipes := make([]*pipeline, len(parts))
		for pi, part := range parts {
			var pl *Plan
			if it.Plans != nil {
				pl = it.Plans[pi]
			}
			p, err := buildPipeline(part, pl, it.Term, it.Col, nil, false)
			if err != nil {
				errs[i] = err
				continue build
			}
			pipes[pi] = p
		}
		members = append(members, pipes)
		memberIdx = append(memberIdx, i)
	}
	if len(members) > 0 {
		err := scanParts(ctx, pool, parts, members, func(j int, err error) { errs[memberIdx[j]] = err })
		if err != nil {
			return results, errs, err
		}
		for j, pipes := range members {
			if errs[memberIdx[j]] == nil {
				results[memberIdx[j]] = mergeParts(pipes)
			}
		}
	}
	return results, errs, ctx.Err()
}
