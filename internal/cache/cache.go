// Package cache profiles synthetic memory-access streams on set-associative,
// LRU-replacement, multi-level cache hierarchies configured from the cache
// geometry of Table I in the paper. The PMU substrate uses it to turn each
// workload's locality profile into L2/L3 hit counts and DRAM read/write
// counts, i.e. four of the six predictor variables of the paper's power
// regression model.
package cache

import (
	"errors"
	"fmt"
)

// errNoLevels is the error for a hierarchy with no levels.
var errNoLevels = errors.New("cache: hierarchy needs at least one level")

// Config describes one cache level.
type Config struct {
	Name      string // e.g. "L2"
	SizeBytes int
	LineBytes int
	Ways      int // associativity; Ways == number of lines per set
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int {
	lines := c.SizeBytes / c.LineBytes
	if c.Ways <= 0 || lines <= 0 || lines%c.Ways != 0 {
		return 0
	}
	return lines / c.Ways
}

// Validate checks the geometry for consistency.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache: %s has non-positive geometry", c.Name)
	}
	if c.SizeBytes%c.LineBytes != 0 {
		return fmt.Errorf("cache: %s size %d not a multiple of line %d", c.Name, c.SizeBytes, c.LineBytes)
	}
	if c.Sets() == 0 {
		return fmt.Errorf("cache: %s lines not divisible into %d ways", c.Name, c.Ways)
	}
	return nil
}

// Stats counts the outcomes observed at one level.
type Stats struct {
	Hits     int64
	Misses   int64
	Accesses int64
}

// HitRate returns Hits/Accesses, or 0 when no accesses occurred.
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}
