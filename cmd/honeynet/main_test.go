package main

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/honeynet"
)

// TestValidateShards: a shard count beyond the deployment's accounts
// is an error naming both numbers; anything up to the account count is
// accepted.
func TestValidateShards(t *testing.T) {
	cases := []struct {
		shards, accounts int
		wantErr          bool
	}{
		{1, 100, false},
		{100, 100, false},
		{101, 100, true},
		{4, 1, true},
		{1, 1, false},
	}
	for _, c := range cases {
		err := validateShards(c.shards, c.accounts)
		if (err != nil) != c.wantErr {
			t.Errorf("validateShards(%d, %d) = %v, wantErr=%v", c.shards, c.accounts, err, c.wantErr)
		}
		if err != nil {
			for _, needle := range []string{"-shards"} {
				if !strings.Contains(err.Error(), needle) {
					t.Errorf("error %q does not mention %q", err, needle)
				}
			}
		}
	}
}

// TestValidateShardsAgainstPlan pins the validation to the real plan
// arithmetic: the paper's Table 1 plan deploys 100 accounts per scale
// unit, so -shards 101 must fail at scale 1 and pass at scale 2.
func TestValidateShardsAgainstPlan(t *testing.T) {
	base := honeynet.PlannedAccounts(honeynet.Config{})
	if base != 100 {
		t.Fatalf("default plan deploys %d accounts, want 100", base)
	}
	if err := validateShards(101, base); err == nil {
		t.Fatal("101 shards over 100 accounts accepted")
	}
	scaled := honeynet.PlannedAccounts(honeynet.Config{ScaleFactor: 2})
	if scaled != 200 {
		t.Fatalf("scale-2 plan deploys %d accounts, want 200", scaled)
	}
	if err := validateShards(101, scaled); err != nil {
		t.Fatalf("101 shards over 200 accounts rejected: %v", err)
	}
}

// TestValidateWorkers: both worker-count flags (-workers and
// -setup-workers) reject values below one with an error naming the
// flag; any positive budget is accepted (worker counts never change
// results, only wall-clock).
func TestValidateWorkers(t *testing.T) {
	for _, flagName := range []string{"workers", "setup-workers"} {
		for _, c := range []struct {
			n       int
			wantErr bool
		}{
			{1, false},
			{4, false},
			{128, false},
			{0, true},
			{-3, true},
		} {
			err := validateWorkers(flagName, c.n)
			if (err != nil) != c.wantErr {
				t.Errorf("validateWorkers(%q, %d) = %v, wantErr=%v", flagName, c.n, err, c.wantErr)
			}
			if err == nil {
				continue
			}
			if !errors.Is(err, errBadWorkers) {
				t.Errorf("validateWorkers(%q, %d) not wrapped in errBadWorkers: %v", flagName, c.n, err)
			}
			if !strings.Contains(err.Error(), "-"+flagName) {
				t.Errorf("error %q does not name -%s", err, flagName)
			}
		}
	}
}

// TestValidateDays: an observation window below one day is an error
// naming -days (the engine would otherwise read 0 as its 236-day
// default); any positive window is accepted.
func TestValidateDays(t *testing.T) {
	for _, c := range []struct {
		days    int
		wantErr bool
	}{
		{1, false},
		{30, false},
		{236, false},
		{0, true},
		{-7, true},
	} {
		err := validateDays(c.days)
		if (err != nil) != c.wantErr {
			t.Errorf("validateDays(%d) = %v, wantErr=%v", c.days, err, c.wantErr)
		}
		if err == nil {
			continue
		}
		if !errors.Is(err, errBadDays) {
			t.Errorf("validateDays(%d) not wrapped in errBadDays: %v", c.days, err)
		}
		if !strings.Contains(err.Error(), "-days") {
			t.Errorf("error %q does not name -days", err)
		}
	}
}
