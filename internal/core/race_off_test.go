//go:build !race

package core

// raceBuild reports a race-instrumented test binary (see race_on_test.go).
const raceBuild = false
