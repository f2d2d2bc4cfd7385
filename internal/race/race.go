//go:build race

// Package race reports whether the race detector is on: its
// instrumentation allocates, so allocation ceilings do not hold under it.
package race

// Enabled is true in a -race build.
const Enabled = true
