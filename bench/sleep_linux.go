package main

import (
	"syscall"
	"time"
)

// sleepUntil blocks until t. time.Sleep on an otherwise idle Go runtime
// wakes through epoll's millisecond timeout (measured here: 100 µs requested,
// 1.05 ms median overshoot), which would be charged to every open-loop
// latency; nanosleep on the worker's own thread overshoots by ~75 µs.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop re-reads the clock
	}
}
