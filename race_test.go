//go:build race

package kreach_test

func init() { raceEnabled = true }
