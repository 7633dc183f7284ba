package sim

import (
	"runtime"
	"testing"
	"weak"
)

// armHolder schedules an event whose callback captures a fresh 1 MiB
// object, returning the event and a weak pointer to the object. Nothing
// else refers to the object, so the event queue is what keeps it alive.
func armHolder(w *World, d Duration) (EventID, weak.Pointer[[1 << 20]byte]) {
	obj := new([1 << 20]byte)
	return w.After(d, func() { obj[0]++ }), weak.Make(obj)
}

// collected runs the collector until p's referent is gone, reporting
// whether it went.
func collected[T any](p weak.Pointer[T]) bool {
	for range 3 {
		runtime.GC()
		if p.Value() == nil {
			return true
		}
	}
	return false
}

// TestCancelReleasesCapturedState pins that a cancelled event stops
// holding its callback's captures while its dead entry still sits in the
// queue: a cancelled watchdog must not keep a whole operation alive
// until its deadline. A live event, scheduled alongside, keeps its own.
func TestCancelReleasesCapturedState(t *testing.T) {
	w := NewWorld(1)
	dead, deadObj := armHolder(w, Second)
	_, liveObj := armHolder(w, Second)
	w.Cancel(dead)
	if !collected(deadObj) {
		t.Fatal("cancelled event still holds its callback's captures")
	}
	if collected(liveObj) {
		t.Fatal("live event lost its callback's captures")
	}
	if w.Now() >= Time(Second) || len(w.pq) != 2 {
		t.Fatalf("queue advanced: now %v, %d entries", w.Now(), len(w.pq))
	}
	w.Run()
	if w.Pending() != 0 {
		t.Fatalf("%d events left", w.Pending())
	}
}
