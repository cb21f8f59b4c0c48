//go:build !linux

package main

// pinToOneCPU does nothing where there is no sched_setaffinity.
func pinToOneCPU() {}
