package sweep_test

import (
	"fmt"
	"testing"

	"kset/internal/harness"
	"kset/internal/sweep"
	"kset/internal/types"
)

// BenchmarkSweepWorkers measures the pool's fan-out of a realistic job batch
// — empirical cell validations, the workload ksetverify distributes — at
// worker counts 1, 4 and 8. On a multi-core machine the 4- and 8-worker
// variants should show near-linear wall-clock scaling; on a single core all
// three collapse to the serial cost plus negligible pool overhead.
func BenchmarkSweepWorkers(b *testing.B) {
	const jobs = 8
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprint(workers), func(b *testing.B) {
			pool := sweep.NewPool(workers)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sums := make([]*harness.Summary, jobs)
				pool.Map(jobs, func(j int) {
					sum, err := harness.ValidateCell(types.MPCR, types.RV1, 12, 6, 5,
						harness.CellOpts{Runs: 4, Seed: uint64(i*jobs+j) + 1})
					if err != nil {
						panic(err)
					}
					sums[j] = sum
				})
				for _, sum := range sums {
					if !sum.OK() {
						b.Fatalf("validation failed: %s", sum)
					}
				}
			}
		})
	}
}
