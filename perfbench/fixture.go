package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"prague/internal/dataset"
	"prague/internal/graph"
	"prague/internal/index"
	"prague/internal/metrics"
	"prague/internal/mining"
	"prague/internal/rpcstore"
	"prague/internal/service"
	"prague/internal/store"
)

// The common fixture: 2000 AIDS-like molecules from a fixed seed, mined at
// α = 0.1 up to 6-edge fragments, indexed with β = 4, served at σ = 3 with
// the service's default candidate cache and verify pool.
const (
	dbGraphs  = 2000
	dbSeed    = 42
	alpha     = 0.1
	maxFrag   = 6
	beta      = 4
	sigma     = 3
	setupReps = 3 // set-ups per run; setup_s is their median
)

func fixtureDB() ([]*graph.Graph, error) {
	return dataset.Molecules(dataset.MoleculeOptions{NumGraphs: dbGraphs, Seed: dbSeed})
}

// stack is one serving stack: the store the services read, and everything
// that has to be closed when the run ends. A traced run keeps two services
// over the one store, one with tracing and one without.
type stack struct {
	st      store.Store
	svc     *service.Service
	traced  *service.Service // nil unless the run is traced
	treg    *metrics.Registry
	servers []*rpcstore.Server
	remote  io.Closer
}

// close releases whatever part of the stack has been built.
func (s *stack) close() {
	if s.traced != nil {
		s.traced.Close()
	}
	if s.svc != nil {
		s.svc.Close()
	}
	if s.remote != nil {
		s.remote.Close()
	}
	for _, srv := range s.servers {
		srv.Close()
	}
}

// setup turns the generated database into a serving stack: mining, index
// build, store (plus two loopback shard servers and the dialed coordinator
// for the remote layout) and service construction. It is the span setup_s
// measures.
func setup(db []*graph.Graph, remote, traced bool) (*stack, time.Duration, error) {
	t0 := time.Now()
	mined, err := mining.Mine(db, mining.Options{
		MinSupportRatio: alpha, MaxSize: maxFrag, IncludeZeroSupportPairs: true,
	})
	if err != nil {
		return nil, 0, fmt.Errorf("mine: %w", err)
	}
	idx, err := index.Build(mined, alpha, beta)
	if err != nil {
		return nil, 0, fmt.Errorf("index: %w", err)
	}
	s := &stack{}
	if remote {
		// Two full replicas of a 2-shard layout, one server each, each
		// answering probes for its own shard. Independent replicas let
		// the coordinator's lockstep mutation broadcast apply once per
		// replica.
		addrs := make([]string, 0, 2)
		for shard := 0; shard < 2; shard++ {
			rep, err := store.NewSharded(db, idx, 2)
			if err != nil {
				s.close()
				return nil, 0, fmt.Errorf("replica %d: %w", shard, err)
			}
			srv := rpcstore.NewServer(rep, rpcstore.WithServeShards(shard))
			if err := srv.Listen("127.0.0.1:0"); err != nil {
				s.close()
				return nil, 0, fmt.Errorf("listen: %w", err)
			}
			s.servers = append(s.servers, srv)
			addrs = append(addrs, srv.Addr().String())
		}
		rs, err := rpcstore.Dial(context.Background(), addrs)
		if err != nil {
			s.close()
			return nil, 0, fmt.Errorf("dial: %w", err)
		}
		s.st, s.remote = rs, rs
	} else {
		s.st, err = store.NewMem(db, idx)
		if err != nil {
			return nil, 0, fmt.Errorf("store: %w", err)
		}
	}
	s.svc, err = service.NewFromStore(s.st, service.WithSigma(sigma), service.WithMetrics(metrics.NewRegistry()))
	if err != nil {
		s.close()
		return nil, 0, fmt.Errorf("service: %w", err)
	}
	elapsed := time.Since(t0)
	if traced {
		s.treg = metrics.NewRegistry()
		s.traced, err = service.NewFromStore(s.st, service.WithSigma(sigma),
			service.WithMetrics(s.treg), service.WithTracing(true))
		if err != nil {
			s.close()
			return nil, 0, fmt.Errorf("traced service: %w", err)
		}
	}
	return s, elapsed, nil
}
