package server

import (
	"errors"

	"repro/internal/api"
	"repro/internal/circuit"
	"repro/internal/registry"
	"repro/internal/sdf"
)

// upload registers a circuit in the daemon's registry. Re-uploading a
// known circuit costs one hash and zero parses.
func (s *Server) upload(up *UploadRequest) (api.Hash, *circuit.Circuit, bool, error) {
	res, err := s.registry.Put(up, s.buildCircuit)
	if err != nil {
		return "", nil, false, err
	}
	return res.Hash, res.Circuit, res.Created, nil
}

// lookup pins a registered circuit, and with it its shared prepared
// state, against eviction for the whole batch. A warm entry serves the
// batch with zero parses and zero core.Prepare calls.
func (s *Server) lookup(h api.Hash) (circuitRef, bool) {
	pin, ok := s.registry.Acquire(h)
	if !ok {
		return nil, false
	}
	return pin, true
}

// inline parses the netlist an inline submission carries; the batch
// then pays its own preparation.
func (s *Server) inline(req *Request) (circuitRef, error) {
	s.netlistParses.Add(1)
	c, apiErr := parseNetlist(req.Netlist, req.Format, req.Name, req.DefaultDelay)
	if apiErr != nil {
		return nil, apiErr
	}
	return inlineCircuit{c}, nil
}

// inlineCircuit is a daemon's unregistered, per-batch circuit.
type inlineCircuit struct{ c *circuit.Circuit }

func (i inlineCircuit) Circuit() *circuit.Circuit { return i.c }
func (inlineCircuit) Hash() api.Hash              { return "" }
func (inlineCircuit) Release()                    {}

// uploadError maps a registry.Put failure onto the structured error
// envelope: canonicalization failures carry their own stable code,
// build failures are already apiErrors.
func uploadError(err error) *apiError {
	var bad *registry.BadUploadError
	if errors.As(err, &bad) {
		return badRequest(bad.Code, "%s", bad.Message)
	}
	var ae *apiError
	if errors.As(err, &ae) {
		return ae
	}
	return badRequest("bad_upload", "%v", err)
}

// buildCircuit parses a canonicalized upload and applies its delay
// annotations. It runs only on uploads of hashes not yet registered —
// the netlistParses counter proves warm paths never reach here. The
// annotations are applied before the circuit is published, so the
// registered circuit is complete and immutable from the moment any
// batch can see it.
func (s *Server) buildCircuit(canon *api.UploadRequest) (*circuit.Circuit, error) {
	s.netlistParses.Add(1)
	return buildUploadCircuit(canon)
}

// buildUploadCircuit is the parse+annotate step shared by the worker
// registry and the coordinator's circuit table; each caller counts the
// parse in its own netlistParses counter.
func buildUploadCircuit(canon *api.UploadRequest) (*circuit.Circuit, error) {
	c, apiErr := parseNetlist(canon.Netlist, canon.Format, canon.Name, canon.DefaultDelay)
	if apiErr != nil {
		return nil, apiErr
	}
	if canon.SDF != "" {
		if _, err := sdf.ApplyString(c, canon.SDF); err != nil {
			return nil, badRequest("bad_sdf", "applying SDF: %v", err)
		}
	}
	for _, d := range canon.Delays {
		id, ok := c.NetByName(d.Net)
		if !ok {
			return nil, badRequest("unknown_annotation_net",
				"delay annotation targets unknown net %q", d.Net)
		}
		drv := c.Net(id).Driver
		if drv == circuit.InvalidGate {
			return nil, badRequest("bad_annotation",
				"net %q is a primary input; only gate outputs carry delays", d.Net)
		}
		g := c.Gate(drv)
		g.Delay = d.Delay
		g.DMin = d.DMin
	}
	return c, nil
}
