package meter

// Steps is a meter log kept by step instead of by timestamp: entry i is
// the reading W[i], taken at step k_i of the meter's sampling loop (Take).
// An entry costs 8 B, the reading alone, against a Sample's 16: an entry's
// step is stored only where the log lists it in J, and otherwise follows
// from the entry before, k_i = k_{i-1} + 1 (an unlisted entry 0 is step
// 0). A reader walks the steps forward with a StepCursor, and one that
// knows the loop's grid recomputes each timestamp bit for bit
// (RepairWindow). Steps never decrease along the log; a step repeats
// where a reading was duplicated and is skipped where one was lost, and
// either entry is listed.
type Steps struct {
	W []float64
	// J lists, in entry order, the entries whose step is given explicitly:
	// every entry whose step is not the previous entry's + 1, and any
	// other entry its writer lists (Append lists every non-finite reading).
	// Its spare capacity is the room a repair's clean pass has to list the
	// steps of the entries it keeps (see RepairOpts.clean).
	J []Jump
}

// Jump gives entry I of a step log its step K.
type Jump struct{ I, K uint32 }

// MakeSteps returns an empty step log with room for n entries, jumps of
// them listed.
func MakeSteps(n, jumps int) Steps {
	return Steps{W: make([]float64, 0, n), J: make([]Jump, 0, jumps)}
}

// Len returns the number of entries.
func (s Steps) Len() int { return len(s.W) }

// Append adds the reading w, taken at step k, to the log. The entry is
// listed when k does not follow the previous entry's step, and when w is
// not finite: a repair drops a non-finite reading, and the entry after it
// takes over its place in the list.
func (s *Steps) Append(k uint32, w float64) {
	if k != s.last()+1 || !finite(w) {
		s.J = append(s.J, Jump{I: uint32(len(s.W)), K: k})
	}
	s.W = append(s.W, w)
}

// last returns the step of the log's last entry: one before step 0, in
// uint32 arithmetic, for an empty log.
func (s *Steps) last() uint32 {
	n := len(s.W)
	if len(s.J) == 0 {
		return uint32(n - 1)
	}
	j := s.J[len(s.J)-1]
	return j.K + uint32(n-1-int(j.I))
}

// Truncate keeps the log's first n entries.
func (s *Steps) Truncate(n int) {
	j := len(s.J)
	for j > 0 && int(s.J[j-1].I) >= n {
		j--
	}
	s.W, s.J = s.W[:n], s.J[:j]
}

// Cursor returns a cursor before the log's first entry.
func (s Steps) Cursor() StepCursor {
	return cursorOver(s.J)
}

// StepCursor reads a step log's steps forward, one entry at a time. Make
// one with Steps.Cursor.
type StepCursor struct {
	// j holds the listed entries not yet reached, and at is the first
	// one's index (-1 when none is left).
	j  []Jump
	at int
	// i counts the entries read, and k is the last one's step.
	i int
	k uint32
}

// cursorOver returns a cursor before the first entry of a log whose
// listed entries are j.
func cursorOver(j []Jump) StepCursor {
	c := StepCursor{j: j, k: ^uint32(0)}
	c.reach()
	return c
}

// Next returns the next entry's step.
func (c *StepCursor) Next() uint32 {
	if c.i != c.at {
		c.i++
		c.k++
		return c.k
	}
	return c.jump()
}

// jump reads the step of a listed entry.
func (c *StepCursor) jump() uint32 {
	c.k = c.j[0].K
	c.j = c.j[1:]
	c.i++
	c.reach()
	return c.k
}

// reach sets at to the next listed entry's index.
func (c *StepCursor) reach() {
	c.at = -1
	if len(c.j) > 0 {
		c.at = int(c.j[0].I)
	}
}
