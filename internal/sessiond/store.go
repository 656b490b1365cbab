package sessiond

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/lru"
	"repro/internal/pinball"
	"repro/internal/store"
	"repro/internal/supervisor"
)

// Locator names the fleet peers that may hold a digest, ranked
// best-first (rendezvous owner, then successors) and excluding the
// asking daemon itself. A nil Locator (or an empty answer) means the
// daemon is on its own: healing stops at salvage.
type Locator interface {
	Locate(digest string) []string
}

// The peer re-fetch policy: at most refetchAttempts peer dials per
// heal, a 25ms..500ms decorrelated-jitter backoff between sequential
// dials, a hedge to the next-ranked peer when the best one has not
// answered within 400ms, and per-peer dial and transfer deadlines.
const (
	refetchAttempts     = 3
	refetchBackoffBase  = 25 * time.Millisecond
	refetchBackoffMax   = 500 * time.Millisecond
	refetchHedgeAfter   = 400 * time.Millisecond
	refetchDialTimeout  = 2 * time.Second
	refetchFetchTimeout = 30 * time.Second

	// spoolCacheCap bounds the digest→spool-path resolution cache.
	spoolCacheCap = 64
)

// errStoreUnavailable types store failures that are about availability,
// not content: the digest exists nowhere reachable, or no store is
// configured. It maps to CodeStoreUnavailable and does NOT open the
// digest's circuit (the pinball content is not at fault).
var errStoreUnavailable = errors.New("store unavailable")

// storeErrorCode maps a store-layer failure onto the wire protocol.
// Availability problems are CodeStoreUnavailable; content damage —
// corrupt or missing objects, digest mismatches, manifest damage — is
// CodeCorrupt, which is pinballAttributable and opens the digest's
// circuit exactly like a corrupt path-named pinball would.
func storeErrorCode(err error) string {
	var be *badRequestError
	switch {
	case errors.As(err, &be):
		return CodeBadRequest
	case errors.Is(err, errStoreUnavailable):
		return CodeStoreUnavailable
	case errors.Is(err, store.ErrNotFound):
		return CodeStoreUnavailable
	case errors.Is(err, store.ErrObjectCorrupt),
		errors.Is(err, store.ErrObjectMissing),
		errors.Is(err, store.ErrDigestMismatch),
		errors.Is(err, store.ErrManifestCorrupt),
		errors.Is(err, store.ErrManifestTorn),
		errors.Is(err, pinball.ErrNotPinball):
		return CodeCorrupt
	}
	return CodeInternal
}

// resolvedPinball is one digest's spooled materialization, the spool
// cache's value type. sticky marks content-level degradation (the spool
// holds salvaged bytes) that every user of the copy must surface;
// healed marks the one-time repair work whose annotation belongs only
// to the requests that waited for it.
type resolvedPinball struct {
	path   string
	sticky string // CodeSalvaged when the spool holds salvaged bytes, else ""
	healed bool   // the load repaired or re-fetched before materializing
}

// storeResolver turns a content digest into a server-local pinball path
// a session can load, healing as needed. The ladder, in order:
//
//  1. materialize the validated local copy to the spool;
//  2. on damage or absence: re-fetch the full file by digest from fleet
//     peers (bounded attempts, decorrelated-jitter backoff, hedged
//     fallback to the rendezvous successor), heal the local store with
//     the validated bytes, and materialize — annotated CodeHealed;
//  3. on unhealable damage: salvage the surviving local bytes
//     (quarantined copies included) into a degraded-but-loadable
//     pinball — annotated CodeSalvaged;
//  4. fail typed: CodeStoreUnavailable if nobody reachable holds the
//     digest, CodeCorrupt if the content itself is beyond recovery.
//
// Resolutions are cached in a single-flight LRU keyed by digest, so
// concurrent sessions on one digest share one materialization (and one
// heal), exactly like the engine cache shares hot slicers.
type storeResolver struct {
	st      *store.Store
	locator Locator
	logf    func(format string, args ...any)
	spool   *lru.Cache[string, resolvedPinball]
}

func newStoreResolver(st *store.Store, loc Locator, logf func(string, ...any)) *storeResolver {
	return &storeResolver{
		st:      st,
		locator: loc,
		logf:    logf,
		spool:   lru.New[string, resolvedPinball](spoolCacheCap),
	}
}

// resolve materializes digest and leases it for the caller's session.
// It returns the spooled path, the degradation annotation the session's
// answer must carry ("" for a clean cache hit), and a release func that
// ends the GC lease — the caller must run it when the session finishes.
func (r *storeResolver) resolve(ctx context.Context, digest string) (path, ann string, release func(), err error) {
	if !store.ValidDigest(digest) {
		return "", "", nil, badRequest("bad digest %q", digest)
	}
	for attempt := 0; attempt < 2; attempt++ {
		v, fresh, lerr := r.lookup(ctx, digest)
		if lerr != nil {
			return "", "", nil, lerr
		}
		rel, aerr := r.st.Acquire(digest)
		if aerr != nil {
			// GC collected the entry between materialization and lease (or
			// another process healed the world out from under us). Drop the
			// cached resolution and rebuild once.
			r.spool.Remove(digest)
			if attempt == 0 {
				continue
			}
			return "", "", nil, aerr
		}
		// With the lease held GC can no longer touch the spool file; if it
		// vanished before we got here, rebuild.
		if _, serr := os.Stat(v.path); serr != nil {
			rel()
			r.spool.Remove(digest)
			continue
		}
		ann := v.sticky
		if fresh && v.healed && ann == "" {
			ann = CodeHealed
		}
		return v.path, ann, rel, nil
	}
	return "", "", nil, fmt.Errorf("%w: digest %s: could not stabilize a spooled copy against concurrent gc", errStoreUnavailable, digest)
}

// lookup returns the cached resolution for digest or builds one,
// reporting whether this caller participated in a fresh load (fresh
// loads carry the healed annotation; pure cache hits do not).
func (r *storeResolver) lookup(ctx context.Context, digest string) (resolvedPinball, bool, error) {
	if v, ok := r.spool.Get(digest); ok {
		if _, err := os.Stat(v.path); err == nil {
			return v, false, nil
		}
		// Spool file vanished (GC swept an expired lease's spool, or an
		// operator cleaned up): invalidate and rebuild below.
		r.spool.Remove(digest)
	}
	v, err := r.spool.GetOrLoadCtx(ctx, digest, func(ctx context.Context) (resolvedPinball, error) {
		return r.load(ctx, digest)
	})
	return v, true, err
}

// load runs the heal ladder for one digest (single-flight under the
// spool cache).
func (r *storeResolver) load(ctx context.Context, digest string) (resolvedPinball, error) {
	path, err := r.st.Materialize(digest)
	if err == nil {
		return resolvedPinball{path: path}, nil
	}

	if errors.Is(err, store.ErrNotFound) {
		// This daemon never held the digest: plain re-fetch from whoever
		// the fleet ranks for it, then store and materialize locally.
		data, ferr := r.refetch(ctx, digest)
		if ferr != nil {
			return resolvedPinball{}, fmt.Errorf("%w: digest %s held by no reachable peer: %v", errStoreUnavailable, digest, ferr)
		}
		if _, perr := r.st.Put(data, store.PutMeta{Kind: "refetch"}); perr != nil {
			return resolvedPinball{}, fmt.Errorf("store re-fetched %s: %w", digest, perr)
		}
		path, merr := r.st.Materialize(digest)
		if merr != nil {
			return resolvedPinball{}, merr
		}
		return resolvedPinball{path: path, healed: true}, nil
	}

	// The local copy is damaged (corrupt or missing chunk, assembly
	// mismatch); the read already quarantined the bad object. Rung 2:
	// replace the whole file from a peer replica.
	r.logf("sessiond: store copy of %s damaged (%v); healing from peers", digest, err)
	if data, ferr := r.refetch(ctx, digest); ferr == nil {
		if herr := r.st.Heal(digest, data); herr == nil {
			if path, merr := r.st.Materialize(digest); merr == nil {
				return resolvedPinball{path: path, healed: true}, nil
			}
		} else {
			r.logf("sessiond: heal of %s rejected: %v", digest, herr)
		}
	}

	// Rung 3: no peer could replace the bytes. Salvage whatever survives
	// locally (quarantined copies included) into a loadable pinball.
	if dmg, ok, _ := r.st.GetDamaged(digest); ok {
		if pb, _, serr := pinball.SalvageBytes(dmg); serr == nil {
			if out, eerr := pb.EncodeBytes(); eerr == nil {
				if spath, werr := r.st.SpoolSalvaged(digest, out); werr == nil {
					r.logf("sessiond: %s unhealable, serving salvaged bytes", digest)
					return resolvedPinball{path: spath, sticky: CodeSalvaged, healed: true}, nil
				}
			}
		}
	}

	// Rung 4: typed failure — the original corruption error, which the
	// server maps to CodeCorrupt and counts against the digest's circuit.
	return resolvedPinball{}, err
}

// refetch downloads digest's validated bytes from the fleet peers the
// locator ranks for it: the best peer first, hedged with the next one
// (the rendezvous successor — where the replicated put landed) if it
// has not answered within refetchHedgeAfter, failing down the ranking
// with backoff. A peer's answer counts only if it hashes to digest.
// The first validated answer wins; losers' connections are closed so
// their transfers stop.
func (r *storeResolver) refetch(ctx context.Context, digest string) ([]byte, error) {
	var addrs []string
	if r.locator != nil {
		addrs = r.locator.Locate(digest)
	}
	if len(addrs) == 0 {
		return nil, errors.New("no fleet peer to fetch from")
	}
	policy := supervisor.FailoverPolicy{
		Attempts:   refetchAttempts,
		Base:       refetchBackoffBase,
		Max:        refetchBackoffMax,
		HedgeAfter: refetchHedgeAfter,
	}
	data, _, dispatches, err := supervisor.Failover(ctx, len(addrs), policy, func(ctx context.Context, i int) ([]byte, error) {
		if i > 0 {
			r.logf("sessiond: fetching %s from peer %s", digest, addrs[i])
		}
		return fetchPeer(ctx, addrs[i], digest)
	})
	if err != nil {
		return nil, fmt.Errorf("all %d peers failed, last: %w", dispatches, err)
	}
	return data, nil
}

// fetchPeer downloads and validates digest from one peer; the
// connection closes when ctx ends.
func fetchPeer(ctx context.Context, addr, digest string) ([]byte, error) {
	c, err := DialTimeout(addr, refetchDialTimeout)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	defer context.AfterFunc(ctx, func() { c.Close() })()
	c.SetDeadline(time.Now().Add(refetchFetchTimeout))
	resp, err := c.Do(&Request{Op: OpStoreFetch, Digest: digest, StoreNoHeal: true, Proto: ProtoCurrent})
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, fmt.Errorf("peer %s: %s: %s", addr, resp.Code, resp.Error)
	}
	var fr StoreFetchResult
	if err := json.Unmarshal(resp.Result, &fr); err != nil {
		return nil, fmt.Errorf("peer %s: malformed fetch result: %v", addr, err)
	}
	if got := store.Digest(fr.Blob); got != digest {
		return nil, fmt.Errorf("peer %s returned bytes hashing to %s, want %s", addr, got, digest)
	}
	return fr.Blob, nil
}

// storeOp answers the four store ops against the daemon's local store.
// store_fetch from a peer healing itself (StoreNoHeal) serves local
// validated bytes only — peer-assisted healing happens exclusively in
// the session resolve path, so two daemons with damaged copies cannot
// recurse into each other forever.
func (s *Server) storeOp(req *Request) Response {
	if req.Proto < ProtoV2 {
		return Response{ID: req.ID, OK: false, Code: CodeBadRequest,
			Error: fmt.Sprintf("sessiond: bad request: store ops require proto >= %d", ProtoV2)}
	}
	if s.resolver == nil {
		return Response{ID: req.ID, OK: false, Code: CodeStoreUnavailable,
			Error: "no store configured on this daemon (start with -store)"}
	}
	st := s.resolver.st
	switch req.Op {
	case OpStorePut:
		if len(req.Blob) == 0 {
			return Response{ID: req.ID, OK: false, Code: CodeBadRequest, Error: "sessiond: bad request: store_put needs blob"}
		}
		res, err := st.Put(req.Blob, store.PutMeta{Program: req.StoreProgram, Kind: req.StoreKind})
		if err != nil {
			return s.storeFailure(req, err)
		}
		return Response{ID: req.ID, OK: true, Result: encode(StorePutResult{
			Digest: res.Digest, Size: res.Size, Chunks: res.Chunks,
			NewChunks: res.NewChunks, Existed: res.Existed,
		})}
	case OpStoreFetch:
		digest, err := s.resolveDigestArg(req.Digest)
		if err != nil {
			return s.storeFailure(req, err)
		}
		data, err := st.Get(digest)
		healed := false
		if err != nil && !req.StoreNoHeal && !errors.Is(err, store.ErrNotFound) {
			// Our copy is damaged: heal from peers before serving, so a
			// client fetch repairs the replica as a side effect.
			if hdata, herr := s.resolver.refetch(s.hardCtx, digest); herr == nil {
				if st.Heal(digest, hdata) == nil {
					if d2, gerr := st.Get(digest); gerr == nil {
						data, err, healed = d2, nil, true
					}
				}
			}
		}
		if err != nil {
			return s.storeFailure(req, err)
		}
		resp := Response{ID: req.ID, OK: true, Result: encode(StoreFetchResult{
			Digest: digest, Size: int64(len(data)), Blob: data, Healed: healed,
		})}
		if healed {
			resp.Code = CodeHealed
		}
		return resp
	case OpStoreStat:
		digest, err := s.resolveDigestArg(req.Digest)
		if err != nil {
			return s.storeFailure(req, err)
		}
		info, err := st.Stat(digest)
		if err != nil {
			return s.storeFailure(req, err)
		}
		return Response{ID: req.ID, OK: true, Result: encode(StoreStatResult{
			Digest: info.Digest, Size: info.Size, Chunks: info.Chunks,
			Program: info.Program, Kind: info.Kind,
			AddedUnix: info.AddedUnix, TouchUnix: info.TouchUnix,
			Pinned: info.Pinned, Leased: info.Leased,
		})}
	case OpStoreLocate:
		// Worker-side answer: does the local store hold a live entry?
		// (The coordinator intercepts locate and answers with its
		// fleet-wide ranking instead.)
		if !store.ValidDigest(req.Digest) {
			return s.storeFailure(req, badRequest("bad digest %q", req.Digest))
		}
		_, err := st.Stat(req.Digest)
		return Response{ID: req.ID, OK: true, Result: encode(StoreLocateResult{
			Digest: req.Digest, Holds: err == nil,
		})}
	}
	return Response{ID: req.ID, OK: false, Code: CodeBadRequest, Error: "sessiond: bad request: unknown store op"}
}

// resolveDigestArg accepts a full digest or a unique prefix (local
// store ops only — the convenience the CLI leans on).
func (s *Server) resolveDigestArg(arg string) (string, error) {
	if store.ValidDigest(arg) {
		return arg, nil
	}
	if arg == "" {
		return "", badRequest("need digest")
	}
	return s.resolver.st.Resolve(arg)
}

// storeFailure types a store-layer error into a response.
func (s *Server) storeFailure(req *Request, err error) Response {
	return Response{ID: req.ID, OK: false, Code: storeErrorCode(err), Error: err.Error()}
}
