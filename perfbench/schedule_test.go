package main

import (
	"reflect"
	"testing"
	"time"
)

func TestScheduleIsSeeded(t *testing.T) {
	a := schedule(7, serveRate, 20*time.Second, len(hotRequests))
	b := schedule(7, serveRate, 20*time.Second, len(hotRequests))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different schedules")
	}
	if c := schedule(8, serveRate, 20*time.Second, len(hotRequests)); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	for i := 1; i < len(a); i++ {
		if a[i].at < a[i-1].at || a[i].at >= 20*time.Second {
			t.Fatalf("arrival %d at %v is out of order or outside the window", i, a[i].at)
		}
	}
}

func TestScheduleClassSharesAreExact(t *testing.T) {
	for _, secs := range []float64{1, 10, 20, 37} {
		s := schedule(1, serveRate, time.Duration(secs*float64(time.Second)), len(hotRequests))
		var n [3]int
		for _, a := range s {
			n[a.class]++
			if a.class == classHot && (a.pick < 0 || a.pick >= len(hotRequests)) {
				t.Fatalf("hot pick %d out of range", a.pick)
			}
		}
		if n[classHot]*10 != 7*len(s) || n[classCold]*10 != 2*len(s) || n[classJob]*10 != len(s) {
			t.Errorf("%v s: %d requests split %v, want exactly 70/20/10", secs, len(s), n)
		}
	}
}

// TestOpenLoopCountsStalls checks there is no coordinated omission: while
// one request stalls the only connection for 500 ms, the requests due
// during the stall keep their due times, so their recorded latency includes
// the wait behind the stalled one.
func TestOpenLoopCountsStalls(t *testing.T) {
	const stall = 500 * time.Millisecond
	var sched []arrival
	for i := 0; i < 20; i++ {
		sched = append(sched, arrival{at: time.Duration(i) * 25 * time.Millisecond})
	}
	recs := openLoop(time.Now(), sched, 1, func(i int, a arrival) {
		if i == 2 {
			time.Sleep(stall)
		}
	})
	stallEnd := recs[2].due.Add(stall)
	during := 0
	for i, r := range recs {
		if r.lag() > 50*time.Millisecond {
			t.Errorf("request %d released %v late: the generator must not wait for answers", i, r.lag())
		}
		if i <= 2 || !r.due.Before(stallEnd) {
			continue
		}
		during++
		if want := stallEnd.Sub(r.due); r.latency() < want {
			t.Errorf("request %d due %v into the stall recorded %v, want at least %v",
				i, r.due.Sub(recs[2].due), r.latency(), want)
		}
	}
	if during < 15 {
		t.Fatalf("only %d requests fell due during the stall", during)
	}
	if recs[0].latency() > 100*time.Millisecond {
		t.Errorf("request before the stall recorded %v", recs[0].latency())
	}
}
