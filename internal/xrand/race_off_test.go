//go:build !race

package xrand_test

const raceEnabled = false
