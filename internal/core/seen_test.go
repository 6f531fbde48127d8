package core

import "testing"

func TestNodeSeenRotationBoundsMemory(t *testing.T) {
	// Drive a node through many heartbeat rounds while publishing; the
	// dedup memory must stay bounded by the rotation policy rather than
	// grow with the total event count.
	tp := Topic("mem")
	c := newCluster(t, 4, Params{}, func(i int) []TopicID { return []TopicID{tp} })
	c.run(10 * 1000) // 10s warmup
	for round := 0; round < 120; round++ {
		c.nodes[0].Publish(tp)
		c.run(1000)
	}
	// 120 events published over 120 rounds; with 30-round generations no
	// node should hold much more than ~2 generations' worth.
	for i, nd := range c.nodes {
		if n := nd.seen.Len(); n > 70 {
			t.Errorf("node %d dedup memory holds %d events; rotation not working", i, n)
		}
	}
}
