import json

import pytest

from qbnet import (ConfigError, TopologyParams, build_network,
                   network_from_dict, parse_run_config, run_config_to_dict,
                   topology_from_dict, topology_to_dict, validate)


def topo_doc(**overrides):
    doc = {"family": "cascaded", "variant": "nr", "n": 3, "g_b": 0.01,
           "gamma_c": 0.1, "gamma_b": [0.1, 0.1, 0.1], "Gamma": 0.1, "xi": 1.0}
    doc.update(overrides)
    return doc


class TestTopologySerialization:
    def test_round_trip(self):
        p = TopologyParams("parallel", "custom", 2, 0.02, 0.1, (0.05, 0.2),
                           0.3, 1 + 2j, thetas=(0.5, -0.5))
        doc = topology_to_dict(p)
        assert topology_from_dict(doc) == p
        assert topology_to_dict(topology_from_dict(doc)) == doc

    def test_scalar_gamma_b_broadcast(self):
        p = topology_from_dict(topo_doc(gamma_b=0.1))
        assert p.gamma_b == (0.1, 0.1, 0.1)

    def test_unknown_key_path(self):
        with pytest.raises(ConfigError, match=r"topology\.gamm_c: unknown key"):
            topology_from_dict(topo_doc(gamm_c=0.1))

    def test_missing_key(self):
        doc = topo_doc()
        del doc["g_b"]
        with pytest.raises(ConfigError, match="g_b"):
            topology_from_dict(doc)

    def test_bad_n(self):
        with pytest.raises(ConfigError, match=r"topology\.n"):
            topology_from_dict(topo_doc(n=0))

    def test_complex_xi_encoding(self):
        p = topology_from_dict(topo_doc(xi=[1.0, -2.0]))
        assert p.xi == 1 - 2j
        assert topology_to_dict(p)["xi"] == [1.0, -2.0]
        with pytest.raises(ConfigError, match=r"topology\.xi"):
            topology_from_dict(topo_doc(xi="one"))

    def test_invalid_params_reported_with_path(self):
        with pytest.raises(ConfigError, match="topology"):
            topology_from_dict(topo_doc(variant="custom"))  # thetas missing


def network_doc():
    """The network document of cascaded ``r1`` with one battery."""
    return {"modes": [{"id": "c", "role": "charger", "decay_rate": 0.1},
                      {"id": "b_1", "role": "battery", "decay_rate": 0.1,
                       "detuning": 0.0}],
            "couplings": [{"source": "c", "target": "b_1", "strength": 0.01,
                           "phase": 0.0}],
            "drives": [{"mode": "c", "amplitude": 1.0}]}


class TestNetworkSerialization:
    def test_parse(self):
        spec = network_from_dict(network_doc())
        assert spec == build_network(
            TopologyParams("cascaded", "r1", 1, 0.01, 0.1, 0.1, 0.1, 1.0))
        assert validate(spec) == []

    def test_complex_amplitude(self):
        doc = network_doc()
        doc["drives"][0]["amplitude"] = [0.5, -1.0]
        assert network_from_dict(doc).drives[0].amplitude == 0.5 - 1j

    def test_unknown_key(self):
        doc = network_doc()
        doc["modes"][0]["color"] = "red"
        with pytest.raises(ConfigError, match=r"network\.modes\[0\]\.color"):
            network_from_dict(doc)


class TestRunConfig:
    def doc(self):
        return {
            "topology": topo_doc(),
            "sweep": {"variable": "g_b", "values": [0.001, 0.01, 0.1]},
            "observables": ["steady_energy"],
            "format": "csv",
        }

    def test_parse(self):
        cfg = parse_run_config(self.doc())
        assert cfg.sweep.variable == "g_b"
        assert cfg.sweep.values == (0.001, 0.01, 0.1)
        assert cfg.observables == ("steady_energy",)

    def test_parse_from_text(self):
        cfg = parse_run_config(json.dumps(self.doc()))
        assert cfg.topology.n == 3

    def test_serialize_parse_serialize_identity(self):
        cfg = parse_run_config(self.doc())
        text = json.dumps(run_config_to_dict(cfg), sort_keys=True)
        again = json.dumps(run_config_to_dict(parse_run_config(text)), sort_keys=True)
        assert again == text

    def test_out_dir_round_trips(self):
        doc = dict(self.doc(), out_dir="results")
        cfg = parse_run_config(doc)
        assert cfg.out_dir == "results"
        assert run_config_to_dict(cfg)["out_dir"] == "results"
        assert parse_run_config(run_config_to_dict(cfg)) == cfg

    def test_out_dir_must_be_a_string(self):
        with pytest.raises(ConfigError, match=r"config\.out_dir: must be a string"):
            parse_run_config(dict(self.doc(), out_dir=3))

    def test_range_grid(self):
        doc = self.doc()
        doc["sweep"]["values"] = {"start": 0.001, "stop": 0.1, "points": 5,
                                  "spacing": "log"}
        cfg = parse_run_config(doc)
        assert len(cfg.sweep.values) == 5
        assert cfg.sweep.values[0] == pytest.approx(0.001)
        assert cfg.sweep.values[-1] == pytest.approx(0.1)

    def test_range_grid_is_linear_by_default(self):
        doc = self.doc()
        doc["sweep"]["values"] = {"start": 0.0, "stop": 1.0, "points": 5}
        cfg = parse_run_config(doc)
        assert cfg.sweep.values == (0.0, 0.25, 0.5, 0.75, 1.0)

    def test_unknown_top_level_key(self):
        for key, value in (("plot", True),
                           ("times", {"start": 0.0, "stop": 10.0, "points": 11})):
            doc = self.doc()
            doc[key] = value
            with pytest.raises(ConfigError, match=rf"config\.{key}: unknown key"):
                parse_run_config(doc)

    def test_unknown_sweep_variable(self):
        doc = self.doc()
        doc["sweep"]["variable"] = "masses"
        with pytest.raises(ConfigError, match=r"config\.sweep\.variable"):
            parse_run_config(doc)

    def test_theta_sweep_needs_index(self):
        doc = self.doc()
        doc["topology"]["variant"] = "r1"
        doc["sweep"] = {"variable": "theta", "values": [0.0, 1.0]}
        with pytest.raises(ConfigError, match="index"):
            parse_run_config(doc)
        doc["sweep"]["index"] = 2
        cfg = parse_run_config(doc)
        assert cfg.sweep.index == 2

    @pytest.mark.parametrize("variant", ["nr", "r2"])
    def test_theta_sweep_needs_free_phases(self, variant):
        # nr and r2 fix their phases, so the sweep would repeat one row
        doc = self.doc()
        doc["topology"]["variant"] = variant
        doc["sweep"] = {"variable": "theta", "values": [-1.5, 0.0, 1.5], "index": 1}
        with pytest.raises(ConfigError, match=r"config\.sweep\.variable: theta sweeps "
                                              r"need a variant in \('r1', 'custom'\)"):
            parse_run_config(doc)

    def test_bad_observable(self):
        doc = self.doc()
        doc["observables"] = ["entropy"]
        with pytest.raises(ConfigError, match=r"config\.observables\[0\]"):
            parse_run_config(doc)

    def test_invalid_json_text(self):
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_run_config("{not json")

    def test_empty_sweep_values_allowed(self):
        doc = self.doc()
        doc["sweep"]["values"] = []
        cfg = parse_run_config(doc)
        assert cfg.sweep.values == ()

    def test_canonical_dict_is_json_safe(self):
        cfg = parse_run_config(self.doc())
        json.dumps(run_config_to_dict(cfg))  # must not raise
