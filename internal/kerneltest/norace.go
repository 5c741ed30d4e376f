//go:build !race

package kerneltest

// Race reports whether the binary was built with -race.
const Race = false
