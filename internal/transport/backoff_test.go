package transport

import (
	"errors"
	"math/rand"
	"testing"
	"time"
)

func TestBackoffGrowthAndCap(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Max: 1 * time.Second}
	want := []time.Duration{
		100 * time.Millisecond,
		200 * time.Millisecond,
		400 * time.Millisecond,
		800 * time.Millisecond,
		1 * time.Second, // capped
		1 * time.Second, // stays capped
	}
	for attempt, w := range want {
		if got := b.Delay(attempt, nil); got != w {
			t.Errorf("Delay(%d) = %v, want %v", attempt, got, w)
		}
	}
}

func TestBackoffZeroValueDefaults(t *testing.T) {
	var b Backoff
	if got := b.Delay(0, nil); got != 100*time.Millisecond {
		t.Errorf("zero-value Delay(0) = %v, want the 100ms default base", got)
	}
	if got := b.Delay(100, nil); got != 5*time.Second {
		t.Errorf("zero-value Delay(100) = %v, want the 5s default cap", got)
	}
}

func TestBackoffJitterStaysInRange(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Max: time.Second}
	rng := rand.New(rand.NewSource(1))
	for attempt := 0; attempt < 6; attempt++ {
		full := b.Delay(attempt, nil) // jitter disabled without an rng
		varied := false
		for i := 0; i < 100; i++ {
			d := b.Delay(attempt, rng)
			if d > full || d < full/2 {
				t.Fatalf("Delay(%d) = %v outside [%v, %v]", attempt, d, full/2, full)
			}
			if d != full {
				varied = true
			}
		}
		if !varied {
			t.Errorf("Delay(%d) never jittered", attempt)
		}
	}
}

func TestResolveErrorKinds(t *testing.T) {
	timeout := &ResolveError{Addr: "h:1", Timeout: true}
	if !IsResolveTimeout(timeout) {
		t.Error("timeout error not recognized by IsResolveTimeout")
	}
	sock := errors.New("socket gone")
	failed := &ResolveError{Addr: "h:1", Err: sock}
	if IsResolveTimeout(failed) {
		t.Error("socket failure misclassified as timeout")
	}
	if !errors.Is(failed, sock) {
		t.Error("ResolveError does not unwrap to the socket error")
	}
}

// TestUDPResolveTimeout points Resolve at an address nobody answers on and
// checks the error is a typed timeout, not a generic failure.
func TestUDPResolveTimeout(t *testing.T) {
	client := listenTestUDP(t)
	// Grab a real loopback address, then close its listener, so the hellos
	// fall on deaf ears without any chance of an ICMP-triggered error.
	dead, err := ListenUDP("127.0.0.1:0", UDPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	addr := dead.LocalAddr().String()
	dead.Close()

	_, err = client.Resolve(addr, 700*time.Millisecond)
	if err == nil {
		t.Fatal("Resolve against a dead address succeeded")
	}
	if !IsResolveTimeout(err) {
		t.Fatalf("Resolve error = %v, want a ResolveError with Timeout", err)
	}
	var re *ResolveError
	if !errors.As(err, &re) || re.Addr != addr {
		t.Fatalf("ResolveError.Addr = %q, want %q", re.Addr, addr)
	}
}

// TestUDPResolveClosed checks Resolve on a closed transport reports the
// socket failure path, not a timeout.
func TestUDPResolveClosed(t *testing.T) {
	client := listenTestUDP(t)
	addr := client.LocalAddr().String()
	client.Close()
	_, err := client.Resolve(addr, time.Second)
	if err == nil {
		t.Fatal("Resolve on a closed transport succeeded")
	}
	if IsResolveTimeout(err) {
		t.Fatalf("closed-transport error misclassified as timeout: %v", err)
	}
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("Resolve error = %v, want ErrClosed underneath", err)
	}
}
