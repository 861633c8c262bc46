package perfmon

import (
	"reflect"
	"testing"
)

// TestAddSumsEveryField fills a row with a distinct value per field and
// adds it twice to a zero row: every field must read twice its value,
// so a counter that Add forgets fails here, and so does one it adds
// into another field.
func TestAddSumsEveryField(t *testing.T) {
	var row Counters
	v := reflect.ValueOf(&row).Elem()
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Kind() != reflect.Int64 {
			t.Fatalf("Counters.%s is %s; this test sums int64 fields only", v.Type().Field(i).Name, v.Field(i).Kind())
		}
		v.Field(i).SetInt(int64(i + 1))
	}
	var sum Counters
	sum.Add(row)
	sum.Add(row)
	s := reflect.ValueOf(sum)
	for i := 0; i < s.NumField(); i++ {
		if got, want := s.Field(i).Int(), 2*int64(i+1); got != want {
			t.Errorf("Counters.%s = %d after adding %d twice, want %d", s.Type().Field(i).Name, got, i+1, want)
		}
	}
}
