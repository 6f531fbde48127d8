package core

import (
	"testing"

	"vitis/internal/simnet"
)

func TestWireSizes(t *testing.T) {
	tp := Topic("w")
	prof := &Profile{
		ID:        1,
		Subs:      []TopicID{tp, tp + 1},
		Proposals: []TopicProposal{{Topic: tp, Proposal: Proposal{GW: 1, Parent: 1, Hops: 0}}},
	}
	if got := (ProfileMsg{Profile: prof}).WireSize(); got != 1+8+2+16+2+28 {
		t.Errorf("ProfileMsg = %d", got)
	}
	if got := (ProfileMsg{}).WireSize(); got != 1 {
		t.Errorf("nil-profile msg = %d", got)
	}
	if got := (RelayMsg{}).WireSize(); got != 20 {
		t.Errorf("RelayMsg = %d", got)
	}
	if got := (Notification{}).WireSize(); got != 37 {
		t.Errorf("Notification = %d", got)
	}
	if got := (PullResp{Payload: make([]byte, 100)}).WireSize(); got != 120 {
		t.Errorf("PullResp = %d", got)
	}
	if got := (SubsSummary{1, 2, 3}).WireSize(); got != 26 {
		t.Errorf("SubsSummary = %d", got)
	}
	// All messages must satisfy simnet.Sized so bandwidth accounting sees
	// them.
	for _, m := range []simnet.Message{
		ProfileMsg{}, RelayMsg{}, Notification{}, PullReq{}, PullResp{},
	} {
		if _, ok := m.(simnet.Sized); !ok {
			t.Errorf("%T does not implement simnet.Sized", m)
		}
	}
}
