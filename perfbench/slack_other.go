//go:build !linux

package main

import "time"

func preciseThread() {}

func shortSleep(d time.Duration) { time.Sleep(d) }
