//go:build race

package edgecloud

const raceEnabled = true
