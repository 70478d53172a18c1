package main

import _ "unsafe" // for go:linkname

// nanotime is the runtime's CLOCK_MONOTONIC reading. Unlike the
// monotonic part of time.Now, which is an offset from the process's
// own start, it is one clock for every process on the host, so a span
// stamped in the xproc-zc child and closed in the server process
// subtracts cleanly.
//
//go:linkname nanotime runtime.nanotime
func nanotime() int64

// mono returns the host-wide monotonic clock in nanoseconds.
func mono() int64 { return nanotime() }
