//go:build !race

package komp

const raceEnabled = false
