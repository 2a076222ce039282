package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"testing"

	"repro/internal/serve"
	agrpc "repro/internal/serve/grpc"
	"repro/internal/serve/grpc/pb"
	"repro/pkg/alayaclient"
)

// pointerCore returns fixed response pointers, so a test can see whether
// a decorator hands back exactly what the core returned.
type pointerCore struct {
	serve.Core
	step *serve.StepResponse
}

func (p *pointerCore) Step(int64, *serve.StepRequest) (*serve.StepResponse, error) {
	return p.step, nil
}

// TestTimedCoreReturnsInnerPointers pins that the decorator passes the
// pooled response through untouched, traced or not: the transport's
// Release then recycles the inner core's buffers.
func TestTimedCoreReturnsInnerPointers(t *testing.T) {
	inner := &pointerCore{step: &serve.StepResponse{}}
	rec := &recorder{}
	tc := newTimedCore(inner, rec, "serve", 0)
	for _, on := range []bool{false, true} {
		rec.on.Store(on)
		if r, _ := tc.Step(1, &serve.StepRequest{}); r != inner.step {
			t.Errorf("traced=%v: Step returned a different response", on)
		}
	}
	if n := len(rec.snapshot()); n != 1 {
		t.Errorf("recorded %d spans while tracing, want 1", n)
	}
}

// TestDecoratedMountsAreByteIdentical mounts one Service twice on each
// transport, once bare and once behind a tracing decorator, and checks
// that identical step requests on two identical sessions come back as
// identical bytes on the wire.
func TestDecoratedMountsAreByteIdentical(t *testing.T) {
	setup, _, err := prepareLongctx(options{seed: 5, tiny: true, setups: 1})
	if err != nil {
		t.Fatal(err)
	}
	dep, _, err := setup()
	if err != nil {
		t.Fatal(err)
	}
	d := dep.(*longctxDep)
	defer d.close()
	d.rec.on.Store(true)
	task := d.tasks[0]
	doc := task.inst.Doc
	ctx := context.Background()

	steps := make([][]byte, 3)
	for i := range steps {
		g := task.decode[i]
		if i == 0 {
			g = task.question[0]
		}
		steps[i], err = serve.MarshalFrame(&serve.StepRequest{Token: doc.Tokens[i], Queries: g})
		if err != nil {
			t.Fatal(err)
		}
	}

	t.Run("http", func(t *testing.T) {
		bare := mountHTTP(d.svc)
		defer bare.Close()
		decorated := mountHTTP(d.tc)
		defer decorated.Close()
		post := func(base string, id int64, body []byte) []byte {
			req, _ := http.NewRequest(http.MethodPost, fmt.Sprintf("%s/v1/sessions/%d/step", base, id), bytes.NewReader(body))
			req.Header.Set("Content-Type", serve.FrameContentType)
			req.Header.Set("Accept", serve.FrameContentType)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			out, err := io.ReadAll(resp.Body)
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("step: status %d, %v", resp.StatusCode, err)
			}
			return out
		}
		open := func(base string) *alayaclient.Session {
			cli, err := alayaclient.NewClient(alayaclient.WithBaseURL(base))
			if err != nil {
				t.Fatal(err)
			}
			s, err := cli.CreateSession(ctx, doc)
			if err != nil || s.Reused != doc.Len() {
				t.Fatalf("create: %v (reused %v)", err, s)
			}
			return s
		}
		a, b := open(bare.URL), open(decorated.URL)
		defer a.CloseSession(ctx)
		defer b.CloseSession(ctx)
		for i, body := range steps {
			if x, y := post(bare.URL, a.ID, body), post(decorated.URL, b.ID, body); !bytes.Equal(x, y) {
				t.Fatalf("step %d: decorated mount answered %d bytes that differ from the bare mount's %d", i, len(y), len(x))
			}
		}
	})

	t.Run("grpc", func(t *testing.T) {
		bare, err := mountGRPC(d.svc)
		if err != nil {
			t.Fatal(err)
		}
		defer bare.close()
		decorated, err := mountGRPC(d.tc)
		if err != nil {
			t.Fatal(err)
		}
		defer decorated.close()
		open := func(addr string) (*agrpc.ClientConn, int64) {
			cli, err := alayaclient.NewClient(alayaclient.WithGRPCAddr(addr))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { cli.Close() })
			s, err := cli.CreateSession(ctx, doc)
			if err != nil || s.Reused != doc.Len() {
				t.Fatalf("create: %v (reused %v)", err, s)
			}
			t.Cleanup(func() { s.CloseSession(ctx) })
			return agrpc.Dial(addr), s.ID
		}
		ca, a := open(bare.addr())
		defer ca.Close()
		cb, b := open(decorated.addr())
		defer cb.Close()
		for i, body := range steps {
			var x, y pb.FrameResponse
			if err := ca.Invoke(ctx, pb.MethodStep, &pb.FrameRequest{SessionID: a, Frame: body}, &x); err != nil {
				t.Fatal(err)
			}
			if err := cb.Invoke(ctx, pb.MethodStep, &pb.FrameRequest{SessionID: b, Frame: body}, &y); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(x.Frame, y.Frame) {
				t.Fatalf("step %d: decorated mount's frame differs from the bare mount's", i)
			}
		}
	})
}
