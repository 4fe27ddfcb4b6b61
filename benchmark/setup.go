package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/rdf"
	"repro/internal/rdf/snapshot"
	"repro/kbqa"
)

// Infra is what a deployment needs before its timed set-up: a scratch
// directory and, for an image workload, the KB image written from the
// generator's world, which is the same world kbqa.Build generates.
type Infra struct {
	dir   string
	image string
}

// prepare writes the KB image of an image workload.
func prepare(wl *Workload, gw *World, dir string) (*Infra, error) {
	inf := &Infra{dir: dir}
	if !wl.Image {
		return inf, nil
	}
	store, ok := gw.KB.Store.(rdf.Sharded)
	if !ok {
		return nil, errors.New("generator world is not sharded")
	}
	inf.image = filepath.Join(dir, "kb.img")
	return inf, snapshot.WriteImageFile(inf.image, store)
}

// Deployment is a built system and its server.
type Deployment struct {
	Sys *kbqa.System
	Srv *kbqa.Server
}

// Close releases the server and the system.
func (d *Deployment) Close() error {
	return errors.Join(d.Srv.Close(), d.Sys.Close())
}

func (wl *Workload) options(inf *Infra) kbqa.Options {
	return kbqa.Options{Flavor: "freebase", Scale: wl.Scale, KBImage: inf.image}
}

// setUp builds the system and its server and answers one question, the
// time until the first answerable query.
func setUp(wl *Workload, inf *Infra) (*Deployment, time.Duration, error) {
	start := time.Now()
	sys, err := kbqa.Build(wl.options(inf))
	if err != nil {
		return nil, 0, err
	}
	so := kbqa.ServerOptions{}
	if wl.NoCache {
		so.CacheEntries = -1
	}
	srv, err := sys.Server(so)
	if err != nil {
		sys.Close()
		return nil, 0, err
	}
	d := &Deployment{Sys: sys, Srv: srv}
	q := sys.SampleQuestions(1)
	if len(q) == 0 {
		d.Close()
		return nil, 0, errors.New("system has no sample question")
	}
	if _, err := srv.Query(context.Background(), q[0]); err != nil {
		d.Close()
		return nil, 0, fmt.Errorf("first query %q: %w", q[0], err)
	}
	return d, time.Since(start), nil
}
