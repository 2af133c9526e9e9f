package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func TestScheduleIntroducesAndRepeatsKeys(t *testing.T) {
	sched, nkeys := schedule(7, 300, 4*time.Second, zipfS)
	again, _ := schedule(7, 300, 4*time.Second, zipfS)
	if !reflect.DeepEqual(sched, again) {
		t.Fatal("the same seed drew two different schedules")
	}
	jobs, introduced := 0, 0
	for i, a := range sched {
		if i > 0 && a.due < sched[i-1].due {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
		if a.kind != arriveJob {
			continue
		}
		if jobs%newKeyEvery == 0 {
			if a.key != introduced {
				t.Fatalf("job %d should introduce key %d, has %d", jobs, introduced, a.key)
			}
			introduced++
		} else if a.key < 0 || a.key >= introduced {
			t.Fatalf("job %d repeats key %d, only %d introduced", jobs, a.key, introduced)
		}
		jobs++
	}
	if introduced != nkeys || jobs < 1000 {
		t.Fatalf("%d jobs introduced %d keys, schedule reports %d", jobs, introduced, nkeys)
	}
}

// With two keys introduced, a repeat must pick rank 0 with the Zipf(s)
// weight over those two ranks, 1/(1+2^-s), not a share of a Zipf over
// the whole population folded onto them.
func TestScheduleRepeatsAreZipfOverIntroducedKeys(t *testing.T) {
	want := 1 / (1 + math.Pow(2, -zipfS))
	var first, n int
	for seed := int64(0); seed < 400; seed++ {
		sched, _ := schedule(seed, 1000, 25*time.Millisecond, zipfS)
		jobs := 0
		for _, a := range sched {
			if a.kind != arriveJob {
				continue
			}
			if jobs > newKeyEvery && jobs < 2*newKeyEvery {
				n++
				if a.key == 0 {
					first++
				}
			}
			jobs++
		}
	}
	got := float64(first) / float64(n)
	if n < 2000 || math.Abs(got-want) > 0.03 {
		t.Fatalf("rank 0 drawn in %.3f of %d repeats among two keys, want %.3f", got, n, want)
	}
}

func TestSummarizeFlagsGrowingLateness(t *testing.T) {
	dur := 3 * time.Second
	step := func(lateAt func(due time.Duration) time.Duration) stepSummary {
		st := newStepStats()
		st.t0 = time.Unix(0, 0)
		for i := 0; i < 300; i++ {
			due := time.Duration(i) * dur / 300
			late := lateAt(due)
			st.jobs = append(st.jobs, jobSample{
				key: i % 10, due: due, late: late, latency: late + 2*time.Millisecond,
				completed: st.t0.Add(due + late + 2*time.Millisecond),
			})
		}
		return summarize(st, dur)
	}
	flat := step(func(time.Duration) time.Duration { return time.Millisecond })
	if flat.growing || !flat.meets(warmLimitMs) {
		t.Fatalf("steady lateness: growing=%v meets=%v", flat.growing, flat.meets(warmLimitMs))
	}
	// A backlog: every second of the step adds 20 ms of lateness, while
	// every latency stays far below the limit.
	grow := step(func(due time.Duration) time.Duration { return due / 50 })
	if !grow.growing || grow.meets(warmLimitMs) {
		t.Fatalf("growing lateness: growing=%v meets=%v", grow.growing, grow.meets(warmLimitMs))
	}
}
