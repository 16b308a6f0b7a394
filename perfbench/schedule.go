package main

import (
	"math/rand"
	"sort"
	"sync"
	"time"
)

// class is a serve-mixed request class.
type class int

const (
	classHot  class = iota // /v1/solve served from the result cache
	classCold              // /v1/solve on a fresh dataset
	classJob               // /v1/jobs watched over NDJSON
)

func (c class) String() string {
	return [...]string{"hot", "cold", "job"}[c]
}

// classShares are the design shares of the mix, in tenths: 70% hot, 20%
// cold, 10% jobs. Schedules hold these shares exactly.
var classShares = [...]int{classHot: 7, classCold: 2, classJob: 1}

// arrival is one scheduled request.
type arrival struct {
	at    time.Duration // due time, from the start of the window
	class class
	ord   int // ordinal within its class
	pick  int // hot: which pre-warmed fingerprint
}

// schedule draws an open-loop schedule of rate×window requests (rounded
// down to a multiple of ten, at least ten) with Poisson arrivals: given the
// count, the arrival times of a Poisson process are independent uniform
// draws over the window, sorted. Classes are an exact-share shuffle. The
// same seed always gives the same schedule.
func schedule(seed int64, rate float64, window time.Duration, hotSet int) []arrival {
	rng := rand.New(rand.NewSource(seed))
	n := int(rate*window.Seconds()) / 10 * 10
	if n < 10 {
		n = 10
	}
	at := make([]time.Duration, n)
	for i := range at {
		at[i] = time.Duration(rng.Int63n(int64(window)))
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	classes := make([]class, 0, n)
	for c, tenths := range classShares {
		for i := 0; i < n*tenths/10; i++ {
			classes = append(classes, class(c))
		}
	}
	rng.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
	out := make([]arrival, n)
	var ords [len(classShares)]int
	for i := range out {
		c := classes[i]
		out[i] = arrival{at: at[i], class: c, ord: ords[c]}
		ords[c]++
		if c == classHot {
			out[i].pick = rng.Intn(hotSet)
		}
	}
	return out
}

// sent is the load generator's record of one request: when it was due,
// when the generator released it, and when its answer completed.
type sent struct {
	arrival
	due, released, done time.Time
}

// latency is measured from the due time, so time a request spent waiting
// behind a stalled one counts (no coordinated omission).
func (s sent) latency() time.Duration { return s.done.Sub(s.due) }

// lag is how late the generator released the request against its schedule.
func (s sent) lag() time.Duration { return s.released.Sub(s.due) }

// openLoop releases every arrival at its due time, whatever the state of
// earlier requests, onto at most conns concurrent workers, and returns one
// record per arrival in schedule order once all have completed. do executes
// one request; the worker calls it as soon as it is free.
func openLoop(start time.Time, sched []arrival, conns int, do func(i int, a arrival)) []sent {
	recs := make([]sent, len(sched))
	queue := make(chan int, len(sched)) // sized to the number of sends
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				do(i, sched[i])
				recs[i].done = time.Now()
			}
		}()
	}
	for i, a := range sched {
		due := start.Add(a.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		recs[i].arrival = a
		recs[i].due = due
		recs[i].released = time.Now()
		queue <- i
	}
	close(queue)
	wg.Wait()
	return recs
}
