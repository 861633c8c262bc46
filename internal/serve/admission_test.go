package serve

import (
	"strings"
	"testing"
)

func TestRejectOverloaded(t *testing.T) {
	a, err := NewAdmission("reject-overloaded", AdmissionConfig{MaxDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	stats := flat(2, 3)
	if err := a.Admit(job(""), stats); err == nil {
		t.Fatal("admitted at the depth ceiling")
	}
	stats[1].Queued = 2 // one runtime below ceiling: admit
	if err := a.Admit(job(""), stats); err != nil {
		t.Fatalf("rejected with a below-ceiling runtime available: %v", err)
	}
}

func TestAlwaysAdmit(t *testing.T) {
	a, err := NewAdmission("always", AdmissionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Admit(job(""), flat(1, 1<<20)); err != nil {
		t.Fatalf("always admitted nothing: %v", err)
	}
}

func TestAdmissionFactoryValidation(t *testing.T) {
	if _, err := NewAdmission("vibes", AdmissionConfig{}); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if _, err := NewAdmission("reject-overloaded", AdmissionConfig{MaxDepth: 0}); err == nil {
		t.Fatal("reject-overloaded with zero depth accepted")
	}
	for _, name := range AdmissionNames() {
		if _, err := NewAdmission(name, AdmissionConfig{MaxDepth: 8}); err != nil {
			t.Fatalf("listed policy %q: %v", name, err)
		}
	}
	if !strings.Contains(mustAdmissionErr(t), "reject-overloaded") {
		t.Fatal("factory error does not name the policy")
	}
}

func mustAdmissionErr(t *testing.T) string {
	t.Helper()
	_, err := NewAdmission("reject-overloaded", AdmissionConfig{})
	if err == nil {
		t.Fatal("expected error")
	}
	return err.Error()
}
