"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main

RULES = """
(p greet
   (person ^name <n>)
   -->
   (write "hello" <n>)
   (remove 1))
"""


@pytest.fixture
def rule_file(tmp_path):
    path = tmp_path / "rules.ops"
    path.write_text(RULES)
    return path


@pytest.fixture
def facts_file(tmp_path):
    path = tmp_path / "facts.jsonl"
    lines = [
        json.dumps({"relation": "person", "name": "ada"}),
        "# a comment",
        "",
        json.dumps({"relation": "person", "name": "grace"}),
    ]
    path.write_text("\n".join(lines))
    return path


class TestRun:
    def test_single_thread_run(self, rule_file, facts_file, capsys):
        code = main(["run", str(rule_file), "--facts", str(facts_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert "loaded 2 facts" in out
        assert out.count("greet") == 2
        assert "hello" in out
        assert "quiescent" in out

    @pytest.mark.parametrize("scheme", ["rc", "2pl"])
    def test_parallel_run_validates(self, rule_file, facts_file, capsys, scheme):
        code = main(
            ["run", str(rule_file), "--facts", str(facts_file),
             "--parallel", scheme]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "consistent" in out
        assert "INCONSISTENT" not in out

    def test_dump_prints_memory(self, rule_file, tmp_path, capsys):
        facts = tmp_path / "f.jsonl"
        facts.write_text(json.dumps({"relation": "thing", "id": 1}))
        code = main(
            ["run", str(rule_file), "--facts", str(facts), "--dump"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "thing" in out

    def test_matcher_option(self, rule_file, facts_file, capsys):
        for matcher in (
            "naive", "rete", "treat", "cond",
            "partitioned", "partitioned:rete:2", "partitioned:treat:3",
            "partitioned:naive:2:serial",
        ):
            code = main(
                ["run", str(rule_file), "--facts", str(facts_file),
                 "--matcher", matcher]
            )
            assert code == 0

    def test_partitioned_matcher_with_parallel_engine(
        self, rule_file, facts_file, capsys
    ):
        code = main(
            ["run", str(rule_file), "--facts", str(facts_file),
             "--parallel", "rc", "--matcher", "partitioned:rete:4"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "consistent" in out
        assert "INCONSISTENT" not in out

    def test_bad_matcher_spec_reports_error(
        self, rule_file, facts_file, capsys
    ):
        # Malformed specs now die at argparse time (SystemExit 2)
        # with the valid alternatives, before any engine is built.
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["run", str(rule_file), "--facts", str(facts_file),
                 "--matcher", "partitioned:bogus:2"]
            )
        err = capsys.readouterr().err
        assert excinfo.value.code == 2
        assert "bogus" in err

    def test_unknown_matcher_name_reports_error(
        self, rule_file, facts_file, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["run", str(rule_file), "--facts", str(facts_file),
                 "--matcher", "retee"]
            )
        err = capsys.readouterr().err
        assert excinfo.value.code == 2
        assert "unknown matcher" in err

    def test_removed_lock_stripes_option_is_refused(
        self, rule_file, facts_file, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["run", str(rule_file), "--facts", str(facts_file),
                 "--parallel", "rc", "--lock-stripes", "8"]
            )
        assert excinfo.value.code == 2
        assert "--lock-stripes" in capsys.readouterr().err

    def test_empty_rule_file_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty.ops"
        empty.write_text("; nothing here\n")
        assert main(["run", str(empty)]) == 2
        assert "error: no productions found" in capsys.readouterr().err

    def test_bad_fact_line_reports_error(self, rule_file, tmp_path, capsys):
        facts = tmp_path / "bad.jsonl"
        facts.write_text("{not json}")
        code = main(["run", str(rule_file), "--facts", str(facts)])
        err = capsys.readouterr().err
        assert code == 2
        assert "bad fact line" in err


class TestRunWithFaults:
    def test_faulted_parallel_run_still_consistent(
        self, rule_file, facts_file, capsys
    ):
        code = main(
            ["run", str(rule_file), "--facts", str(facts_file),
             "--parallel", "rc", "--fault-rate", "0.5",
             "--retries", "4", "--fault-seed", "3"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "INCONSISTENT" not in out

    def test_fault_options_require_parallel(
        self, rule_file, facts_file, capsys
    ):
        code = main(
            ["run", str(rule_file), "--facts", str(facts_file),
             "--fault-rate", "0.5"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "--parallel" in err

    def test_unknown_fault_kind_reports_error(
        self, rule_file, facts_file, capsys
    ):
        code = main(
            ["run", str(rule_file), "--facts", str(facts_file),
             "--parallel", "rc", "--fault-rate", "0.5",
             "--fault-kinds", "lock_deny,disk_on_fire"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "disk_on_fire" in err


class TestChaos:
    def test_sweep_reports_every_seed_consistent(
        self, rule_file, facts_file, capsys
    ):
        code = main(
            ["chaos", str(rule_file), "--facts", str(facts_file),
             "--seeds", "4"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "all 4 seeds replay consistently" in out
        assert "INCONSISTENT" not in out
        assert out.count("consistent") >= 5  # 4 rows + the summary

    def test_scheme_and_kind_options(self, rule_file, facts_file, capsys):
        code = main(
            ["chaos", str(rule_file), "--facts", str(facts_file),
             "--seeds", "2", "--scheme", "2pl",
             "--fault-kinds", "abort_rhs", "--fault-rate", "0.6"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "scheme=2pl" in out
        assert "kinds=abort_rhs" in out

    def test_zero_rate_rejected(self, rule_file, capsys):
        code = main(
            ["chaos", str(rule_file), "--fault-rate", "0"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "fault-rate" in err


class TestGraph:
    def test_graph_prints_sequences(self, capsys):
        assert main(["graph"]) == 0
        out = capsys.readouterr().out
        assert "p1p4p5" in out
        assert "S[ε]" in out


class TestSection5:
    def test_section5_all_ok(self, capsys):
        assert main(["section5"]) == 0
        out = capsys.readouterr().out
        assert out.count("OK") == 4
        assert "MISMATCH" not in out


class TestLint:
    def test_clean_program(self, rule_file, facts_file, capsys):
        code = main(
            ["lint", str(rule_file), "--facts", str(facts_file)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "no lint findings" in out

    def test_findings_reported_and_nonzero_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.ops"
        bad.write_text(
            '(p r (ghost ^kind "k") --> (remove 1) (make orphan ^v 1))'
        )
        code = main(["lint", str(bad)])
        out = capsys.readouterr().out
        assert code == 1
        assert "unmatchable-rule" in out
        assert "dead-write" in out

    def test_graph_dot_output(self, capsys):
        assert main(["graph", "--dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph execution_graph {")
        assert "doublecircle" in out


class TestTrace:
    """The span dump: ``obs export --format jsonl``."""

    def test_trace_emits_json_lines(self, rule_file, facts_file, capsys):
        code = main(
            ["obs", "export", str(rule_file), "--facts", str(facts_file),
             "--format", "jsonl"]
        )
        captured = capsys.readouterr()
        assert code == 0
        rows = [json.loads(line) for line in captured.out.splitlines()]
        names = {row["name"] for row in rows}
        assert {"run", "cycle", "lock.acquire", "firing"} <= names
        assert any(r["fields"].get("status") == "committed" for r in rows)
        assert "stop=quiescent" in captured.err

    def test_out_writes_file(self, rule_file, facts_file, tmp_path, capsys):
        target = tmp_path / "trace.jsonl"
        code = main(
            ["obs", "export", str(rule_file), "--facts", str(facts_file),
             "--format", "jsonl", "--out", str(target)]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        assert target.exists()
        json.loads(target.read_text().splitlines()[0])


class TestMetrics:
    """The metrics registry: ``obs export --format prom``."""

    def test_metrics_emits_snapshot(self, rule_file, facts_file, capsys):
        code = main(
            ["obs", "export", str(rule_file), "--facts", str(facts_file),
             "--format", "prom"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "# TYPE repro_lock_wait_seconds histogram" in out
        assert "repro_txn_commits_total 2" in out
        assert "repro_firing_committed_total 2" in out


class TestRemovedObservability:
    """``repro trace``, ``repro metrics`` and ``--level trace`` are
    gone: ``repro obs export`` carries the spans and the registry.
    ``repro storage compact`` is gone: a checkpoint bounds the WAL."""

    @pytest.mark.parametrize("argv", [
        ["trace"], ["metrics"], ["obs", "export", "--level", "trace"],
        ["storage", "compact", "store"],
    ])
    def test_is_refused(self, argv, rule_file, facts_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, str(rule_file), "--facts", str(facts_file)])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


CONFLICT_RULES = """
(p toggle 10
   (flag ^id <f> ^state on)
   -->
   (modify 1 ^state off))

(p observe 0
   (flag ^id <f> ^state on)
   -->
   (make seen ^flag <f>))
"""


@pytest.fixture
def conflict_rule_file(tmp_path):
    path = tmp_path / "conflict.ops"
    path.write_text(CONFLICT_RULES)
    return path


@pytest.fixture
def conflict_facts_file(tmp_path):
    path = tmp_path / "conflict.jsonl"
    path.write_text(
        json.dumps({"relation": "flag", "id": 1, "state": "on"})
    )
    return path


class TestObsExport:
    def test_chrome_export_is_a_loadable_trace(
        self, conflict_rule_file, conflict_facts_file, capsys
    ):
        code = main(
            ["obs", "export", str(conflict_rule_file),
             "--facts", str(conflict_facts_file),
             "--format", "chrome"]
        )
        captured = capsys.readouterr()
        assert code == 0
        doc = json.loads(captured.out)
        names = {e["name"].split("[")[0] for e in doc["traceEvents"]}
        assert {"run", "cycle", "firing"} <= names
        assert "# format=chrome" in captured.err

    def test_prom_export_has_metrics(
        self, conflict_rule_file, conflict_facts_file, capsys
    ):
        code = main(
            ["obs", "export", str(conflict_rule_file),
             "--facts", str(conflict_facts_file),
             "--format", "prom"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "repro_txn_commits_total" in out

    def test_empty_rule_file_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty.ops"
        empty.write_text("; nothing here\n")
        assert main(["obs", "export", str(empty)]) == 2
        assert "error" in capsys.readouterr().err

    def test_jsonl_export_includes_partitioned_match_spans(
        self, rule_file, facts_file, capsys
    ):
        code = main(
            ["obs", "export", str(rule_file), "--facts", str(facts_file),
             "--format", "jsonl", "--matcher", "partitioned:rete:2"]
        )
        captured = capsys.readouterr()
        assert code == 0
        spans = [json.loads(line) for line in captured.out.splitlines()]
        assert any(span["name"] == "match.flush" for span in spans)
        shard_ids = {
            span["fields"]["shard"] for span in spans
            if span["name"] == "match.shard"
        }
        assert shard_ids == {0, 1}

    def test_jsonl_export_writes_file(
        self, conflict_rule_file, conflict_facts_file, tmp_path
    ):
        target = tmp_path / "spans.jsonl"
        code = main(
            ["obs", "export", str(conflict_rule_file),
             "--facts", str(conflict_facts_file),
             "--format", "jsonl", "--out", str(target)]
        )
        assert code == 0
        rows = [
            json.loads(line)
            for line in target.read_text().splitlines() if line
        ]
        assert any(r["name"] == "cycle" for r in rows)


class TestRunSaysWhoLostTheWave:
    @pytest.mark.parametrize(
        "scheme, summary",
        [
            # The reader acts before the writer that out-ranks it.
            pytest.param(
                "rc",
                "ordered first: 1, held back: 0, rule-(ii) aborts: 0, "
                "deferred: 0",
                id="rc",
            ),
            ("2pl", "held back: 0, rule-(ii) aborts: 0, deferred: 1"),
        ],
    )
    def test_parallel_summary_counts_hold_backs(
        self, conflict_rule_file, conflict_facts_file, capsys, scheme,
        summary,
    ):
        code = main(
            ["run", str(conflict_rule_file),
             "--facts", str(conflict_facts_file),
             "--strategy", "priority", "--parallel", scheme]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert summary in out


class TestObsReport:
    def test_report_shows_critical_paths_and_aborts(
        self, conflict_rule_file, conflict_facts_file, capsys
    ):
        code = main(
            ["obs", "report", str(conflict_rule_file),
             "--facts", str(conflict_facts_file),
             "--strategy", "priority"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "critical paths" in out
        assert "makespan" in out
        # Re-targeted: the deterministic wave puts the reader before
        # the writer at admission, so nothing is left for rule (ii) to
        # abort and nobody is held back.
        assert "rule-(ii) abort attribution: 0 aborts" in out
        assert "admission: 0 held back, 1 ordered first" in out
        assert "ordered observe before toggle on ('flag', 1)" in out

    def test_report_names_the_cycle_a_hold_back_was_cut_from(
        self, tmp_path, conflict_facts_file, capsys
    ):
        rules = tmp_path / "circular.ops"
        rules.write_text(
            """
(p toggle 10 (flag ^id <f> ^state "on") --> (modify 1 ^state "off"))
(p dim 0 (flag ^id <f> ^state "on") --> (modify 1 ^state "low"))
"""
        )
        code = main(
            ["obs", "report", str(rules),
             "--facts", str(conflict_facts_file),
             "--strategy", "priority"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "admission: 1 held back, 0 ordered first" in out
        assert (
            "held dim: cycle dim -> toggle -> dim "
            "on ('flag', 1), ('flag', 1)"
        ) in out

    def test_report_still_attributes_real_rule_ii_aborts(
        self, rule_ii_by_hand
    ):
        """Rule (ii) where it still runs keeps its victim <- committer
        table."""
        import repro.obs as obs
        from repro.cli import _render_obs_report

        observer = obs.Observer()
        rule_ii_by_hand(observer)
        out = _render_obs_report(observer)
        assert "rule-(ii) abort attribution: 1 aborts" in out
        assert "observe" in out and "toggle" in out
        assert "admission: 0 held back" in out


class TestStorageCommands:
    @staticmethod
    def _seed_store(directory):
        from repro.wm import DurableStore, WorkingMemory

        wm = WorkingMemory()
        store = DurableStore(wm, directory, segment_max_records=3)
        for i in range(7):
            temp = wm.make("item", i=i)
            if i % 2:
                wm.remove(temp)
        store.close()
        return wm

    def test_inspect_lists_segments(self, tmp_path, capsys):
        self._seed_store(tmp_path)
        assert main(["storage", "inspect", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "checkpoint: none" in out
        assert "wal-" in out
        assert "total: 10 WAL records" in out

    def test_inspect_json(self, tmp_path, capsys):
        self._seed_store(tmp_path)
        assert main(["storage", "inspect", str(tmp_path), "--json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["total_wal_records"] == 10
        assert len(info["segments"]) >= 3

    def test_checkpoint_truncates(self, tmp_path, capsys):
        self._seed_store(tmp_path)
        assert main(["storage", "checkpoint", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "checkpointed 4 elements at lsn 10" in out
        assert main(["storage", "inspect", str(tmp_path), "--json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["checkpoint"]["elements"] == 4
        assert info["total_wal_records"] == 0

    def test_chaos_sweep_passes(self, tmp_path, capsys):
        code = main(["storage", "chaos", "--seeds", "1", "--ops", "40"])
        out = capsys.readouterr().out
        assert code == 0
        assert "recovered a commit-sequence prefix exactly" in out
        assert {"ops", "interpreter", "parallel"} <= set(out.split())

    def test_chaos_rejects_bad_args(self, capsys):
        assert main(["storage", "chaos", "--seeds", "0"]) == 2
        assert "error" in capsys.readouterr().err


class TestObsProfile:
    def test_profile_prints_ranked_table(self, capsys):
        code = main(["obs", "profile", "manners:8"])
        captured = capsys.readouterr()
        assert code == 0
        header = captured.out.splitlines()[0]
        assert "coverage=" in header
        assert "lock_wait" in captured.out
        assert "(match)" in captured.out
        assert "coverage=" in captured.err

    def test_profile_writes_out_file(
        self, conflict_rule_file, conflict_facts_file, tmp_path
    ):
        target = tmp_path / "profile.txt"
        code = main(
            ["obs", "profile", str(conflict_rule_file),
             "--facts", str(conflict_facts_file),
             "--strategy", "priority", "--out", str(target)]
        )
        assert code == 0
        assert "rule" in target.read_text()

    def test_top_n_limits_rows(self, capsys):
        code = main(["obs", "profile", "manners:8", "--top", "1"])
        out = capsys.readouterr().out
        assert code == 0
        # header + column row + separator + exactly one rule row
        assert len(out.splitlines()) == 4


class TestObsHealth:
    def test_clean_run_is_green_and_exits_zero(self, capsys):
        code = main(["obs", "health", "manners:8"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.startswith("health: GREEN")
        assert "abort_rate" in captured.out
        assert "status=green" in captured.err

    def test_chaos_run_goes_red_and_exits_one(self, capsys):
        code = main(
            ["obs", "health", "manners:8",
             "--fault-rate", "0.5", "--retries", "2",
             "--fault-seed", "3"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out.startswith("health: RED")
        assert "transitions:" in captured.out
        assert "green -> " in captured.out

    def test_json_payload(self, capsys):
        code = main(["obs", "health", "manners:8", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["status"] == "green"
        assert {r["rule"] for r in doc["rules"]} == {
            "abort_rate", "retry_exhaustion", "lock_wait_share",
            "wal_stall",
        }


class TestObsTop:
    def test_prints_last_interval_line(self, capsys):
        code = main(["obs", "top", "manners:8"])
        out = capsys.readouterr().out
        assert code == 0
        final = out.splitlines()[-1]
        assert "waves=" in final
        assert "committed=" in final
        assert "health=green" in final

    def test_invalid_interval_rejected(self, capsys):
        assert main(
            ["obs", "top", "manners:8", "--interval", "0"]
        ) == 2
        assert "error" in capsys.readouterr().err


class TestMannersShortcut:
    def test_shortcut_with_seed(self, capsys):
        code = main(["obs", "health", "manners:6:3"])
        assert code == 0

    def test_shortcut_rejects_facts_flag(self, tmp_path, capsys):
        facts = tmp_path / "f.jsonl"
        facts.write_text("")
        assert main(
            ["obs", "health", "manners:6", "--facts", str(facts)]
        ) == 2
        assert "cannot be combined" in capsys.readouterr().err


#: Every command that runs a program, as it is invoked before RULES.
PROGRAM_COMMANDS = {
    "run": ["run"],
    "chaos": ["chaos", "--seeds", "1"],
    "lint": ["lint"],
    "obs export": ["obs", "export", "--format", "prom"],
    "obs report": ["obs", "report"],
    "obs profile": ["obs", "profile"],
    "obs health": ["obs", "health"],
    "obs top": ["obs", "top"],
}
_ALL = set(PROGRAM_COMMANDS)
_ENGINE = _ALL - {"lint"}
_RETRIES = {"run", "chaos", "obs profile", "obs health", "obs top"}
_OBSERVED = {name for name in _ALL if name.startswith("obs")}

#: (case, the commands with that flag, RULES or None for the rule
#: file, extra flags, what the error line names)
BAD_INPUT = [
    ("missing-rules", _ALL, "absent.ops", [], "absent.ops"),
    ("missing-facts", _ALL, None, ["--facts", "{tmp}/absent.jsonl"],
     "absent.jsonl"),
    ("bad-fact-line", _ALL, None, ["--facts", "{tmp}/bad.jsonl"],
     "bad fact line"),
    ("empty-program", _ALL, "empty.ops", [], "no productions found"),
    ("fractional-priority", _ALL, "fractional.ops", [], "priority"),
    ("processors-0", _ENGINE, None, ["--processors", "0"], "--processors"),
    ("retries-0", _RETRIES, None, ["--retries", "0"], "--retries"),
    ("sample-rate-2", _OBSERVED, None, ["--sample-rate", "2"],
     "--sample-rate"),
]


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as done:  # argparse refusals
        return done.code


class TestErrorContract:
    """Every command that runs a program reads it through one loader
    and one argument group: bad outside input is exit 2 with one
    ``error:`` line, never a traceback."""

    @pytest.mark.parametrize("command, rules, flags, names", [
        pytest.param(command, rules, flags, names, id=f"{command.replace(' ', '-')}-{case}")
        for case, commands, rules, flags, names in BAD_INPUT
        for command in PROGRAM_COMMANDS if command in commands
    ])
    def test_bad_input_is_one_error_line(
        self, command, rules, flags, names, rule_file, tmp_path, capsys
    ):
        (tmp_path / "bad.jsonl").write_text("{not json}\n")
        (tmp_path / "empty.ops").write_text("; nothing here\n")
        (tmp_path / "fractional.ops").write_text(
            "(p r 2.5 (a ^v 1) --> (remove 1))\n"
        )
        target = str(tmp_path / rules) if rules else str(rule_file)
        code = _exit_code([
            *PROGRAM_COMMANDS[command], target,
            *(flag.format(tmp=tmp_path) for flag in flags),
        ])
        err = capsys.readouterr().err
        assert code == 2, err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1, err
        assert names in errors[0]

    @pytest.mark.parametrize("command", list(PROGRAM_COMMANDS), ids=[
        command.replace(" ", "-") for command in PROGRAM_COMMANDS
    ])
    def test_manners_is_accepted(self, command, capsys):
        code = _exit_code([*PROGRAM_COMMANDS[command], "manners:6"])
        err = capsys.readouterr().err
        assert "error:" not in err
        # lint's findings exit 1; every other command exits green.
        assert code == (1 if command == "lint" else 0), err


class TestLevelGuards:
    def test_span_export_requires_span_level(
        self, conflict_rule_file, conflict_facts_file, capsys
    ):
        code = main(
            ["obs", "export", str(conflict_rule_file),
             "--facts", str(conflict_facts_file),
             "--format", "chrome", "--level", "metrics"]
        )
        assert code == 2
        assert "needs span recording" in capsys.readouterr().err

    def test_prom_export_works_without_spans(
        self, conflict_rule_file, conflict_facts_file, capsys
    ):
        code = main(
            ["obs", "export", str(conflict_rule_file),
             "--facts", str(conflict_facts_file),
             "--format", "prom", "--level", "metrics"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "repro_firing_committed_total" in out

    def test_report_requires_span_level(
        self, conflict_rule_file, conflict_facts_file, capsys
    ):
        code = main(
            ["obs", "report", str(conflict_rule_file),
             "--facts", str(conflict_facts_file),
             "--level", "metrics"]
        )
        assert code == 2
        assert "needs span recording" in capsys.readouterr().err


class TestStartUp:
    """The CLI imports what the command it was given runs."""

    #: ``python -m repro.cli ARGV`` itself, then what it loaded.
    AS_MAIN = """
import json, runpy, sys
sys.argv = ["repro"] + {argv!r}
try:
    runpy.run_module("{module}", run_name="__main__")
except SystemExit as done:
    assert done.code == 0, done.code
print(json.dumps(sorted(sys.modules)))
"""

    @pytest.mark.parametrize("module", ["repro.cli", "repro"])
    def test_run_loads_what_an_interpreter_run_loads(
        self, module, rule_file, facts_file
    ):
        from test_import_budget import (
            NOT_FOR_AN_INTERPRETER, loaded_under, run_python,
        )

        argv = ["run", str(rule_file), "--facts", str(facts_file)]
        out = run_python(self.AS_MAIN.format(argv=argv, module=module))
        *printed, modules = out.splitlines()
        assert "stop reason: quiescent (single-thread)" in printed
        assert loaded_under(
            json.loads(modules), NOT_FOR_AN_INTERPRETER
        ) == []

    def test_help_lists_every_scheme_matcher_and_fault_kind(self, capsys):
        from repro.cli import build_parser
        from repro.fault import FAULT_KINDS
        from repro.locks import SCHEMES
        from repro.match.base import MATCHERS
        from repro.match.partitioned import BACKENDS
        from repro.obs import LEVELS

        subcommands = build_parser()._subparsers._group_actions[0].choices
        run_help = subcommands["run"].format_help()
        for name in (*SCHEMES, *MATCHERS, *FAULT_KINDS, *BACKENDS):
            assert name in run_help, name
        obs_commands = subcommands["obs"]._subparsers._group_actions[0]
        export_help = obs_commands.choices["export"].format_help()
        for name in (*SCHEMES, *LEVELS, "span ring capacity"):
            assert name in export_help, name

    def test_choices_are_the_registries(self):
        import repro.cli as cli
        from repro.fault import FAULT_KINDS
        from repro.locks import SCHEMES
        from repro.match.strategies import _REGISTRY
        from repro.obs import LEVELS

        assert cli.SCHEMES == tuple(SCHEMES)
        assert cli.FAULT_KINDS == FAULT_KINDS
        assert cli.OBS_LEVELS == LEVELS
        assert cli.STRATEGIES == tuple(_REGISTRY)
