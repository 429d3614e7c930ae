package simtime

import (
	"sync"
	"testing"
	"time"
)

func TestRealClock(t *testing.T) {
	var c RealClock
	before := time.Now()
	got := c.Now()
	after := time.Now()
	if got.Before(before) || got.After(after) {
		t.Errorf("RealClock.Now() = %v outside [%v, %v]", got, before, after)
	}
}

func TestSimClockAdvance(t *testing.T) {
	c := NewSimClock(StudyEpoch)
	if !c.Now().Equal(StudyEpoch) {
		t.Fatalf("Now() = %v, want %v", c.Now(), StudyEpoch)
	}
	got := c.Advance(5 * time.Minute)
	want := StudyEpoch.Add(5 * time.Minute)
	if !got.Equal(want) || !c.Now().Equal(want) {
		t.Errorf("after Advance: %v / %v, want %v", got, c.Now(), want)
	}
}

func TestSimClockRefusesTimeTravel(t *testing.T) {
	c := NewSimClock(StudyEpoch)
	assertPanics := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	assertPanics("Advance(-1)", func() { c.Advance(-time.Second) })
}

func TestSimClockConcurrentReads(t *testing.T) {
	c := NewSimClock(StudyEpoch)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				_ = c.Now()
			}
		}()
	}
	for i := 0; i < 1000; i++ {
		c.Advance(time.Second)
	}
	wg.Wait()
	want := StudyEpoch.Add(1000 * time.Second)
	if !c.Now().Equal(want) {
		t.Errorf("final Now() = %v, want %v", c.Now(), want)
	}
}
