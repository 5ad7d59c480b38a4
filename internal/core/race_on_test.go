//go:build race

package core

// raceBuild reports a race-instrumented test binary, whose sync.Pool
// drops a random share of Puts, so pooled-buffer allocation bounds
// cannot hold there.
const raceBuild = true
