package ring

import "testing"

func TestSeenSetBasics(t *testing.T) {
	s := NewSeen()
	ev := EventID{Publisher: 1, Seq: 1}
	if s.Has(ev) {
		t.Error("fresh set claims membership")
	}
	s.Add(ev)
	if !s.Has(ev) {
		t.Error("added event missing")
	}
	if s.Len() != 1 {
		t.Errorf("len = %d", s.Len())
	}
}

func TestSeenSetSurvivesOneRotation(t *testing.T) {
	s := NewSeen()
	ev := EventID{Publisher: 1, Seq: 2}
	s.Add(ev)
	s.Rotate()
	if !s.Has(ev) {
		t.Error("event lost after a single rotation")
	}
}

func TestSeenSetDroppedAfterTwoRotations(t *testing.T) {
	s := NewSeen()
	ev := EventID{Publisher: 1, Seq: 3}
	s.Add(ev)
	s.Rotate()
	s.Rotate()
	if s.Has(ev) {
		t.Error("event survived two rotations")
	}
}

func TestSeenSetReAddAfterRotationKept(t *testing.T) {
	s := NewSeen()
	ev := EventID{Publisher: 1, Seq: 4}
	s.Add(ev)
	s.Rotate()
	s.Add(ev) // re-touched in the new generation
	s.Rotate()
	if !s.Has(ev) {
		t.Error("re-added event dropped")
	}
}

// TestSeenTickRotatesEveryThirtyBeats pins the rotation cadence all three
// systems share, and that Tick reports exactly the rotating beats.
func TestSeenTickRotatesEveryThirtyBeats(t *testing.T) {
	s := NewSeen()
	ev := EventID{Publisher: 1, Seq: 5}
	s.Add(ev)
	var rotated []int
	for beat := 1; beat <= 90; beat++ {
		if s.Tick() {
			rotated = append(rotated, beat)
		}
		if beat == 59 && !s.Has(ev) {
			t.Fatal("event forgotten after one rotation")
		}
	}
	if len(rotated) != 3 || rotated[0] != 30 || rotated[1] != 60 || rotated[2] != 90 {
		t.Errorf("rotated at beats %v, want [30 60 90]", rotated)
	}
	if s.Has(ev) {
		t.Error("event survived the second rotation")
	}
}
