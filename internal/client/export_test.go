package client

// PendingCount reports files awaiting synchronization.
func (c *Client) PendingCount() int { return len(c.pending) }

// InFlight reports whether a sync session is active.
func (c *Client) InFlight() bool { return c.inFlight }
