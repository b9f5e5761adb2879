package kvs

import (
	"testing"

	"hwdp/internal/mem"
)

func BenchmarkRecordEncode(b *testing.B) {
	buf := make([]byte, RecordSize)
	b.SetBytes(RecordSize)
	for i := 0; i < b.N; i++ {
		encodeRecord(buf, uint64(i), 1)
	}
}

func BenchmarkRecordValidate(b *testing.B) {
	buf := make([]byte, RecordSize)
	encodeRecord(buf, 42, 7)
	b.SetBytes(RecordSize)
	for i := 0; i < b.N; i++ {
		if _, err := validateRecord(buf, 42); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecordValidateDescriptor is BenchmarkRecordValidate's record
// validated the way Get validates a table page: by descriptor, no bytes.
func BenchmarkRecordValidateDescriptor(b *testing.B) {
	s := &Store{gen: mem.NewGenerator(generateRecord)}
	c := mem.Generated(s.gen, pack(42, 7))
	for i := 0; i < b.N; i++ {
		if _, err := s.validate(c, 42); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRecordEncodeValidateRoundTrip asserts the correctness of the pair the
// benchmarks above measure: a record encoded for key k validates under k
// and fails under any other key.
func TestRecordEncodeValidateRoundTrip(t *testing.T) {
	buf := make([]byte, RecordSize)
	encodeRecord(buf, 42, 7)
	v, err := validateRecord(buf, 42)
	if err != nil {
		t.Fatalf("validate(42) failed: %v", err)
	}
	if v != 7 {
		t.Fatalf("version = %d, want 7", v)
	}
	if _, err := validateRecord(buf, 43); err == nil {
		t.Fatal("record for key 42 validated under key 43")
	}
}
