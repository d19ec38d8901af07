from timmdp.baselines import dp_solve
from timmdp.crg import build_crgs
from timmdp.domains import (
    GeneratorParams,
    MaintenanceTask,
    MppInstance,
    compile_mpp,
    example_two_agent,
    gen_coordint,
    gen_pyra,
    gen_random_mpp,
)
from timmdp.formats import write_instance
from timmdp.model import enumerate_successors, validate_instance
from timmdp.search import core_solve

from util import best_open_loop_value


class TestCompileMpp:
    def test_one_deterministic_task_by_hand(self):
        task = MaintenanceTask(id=0, duration=1, delay_prob=0.0,
                               delayed_duration=1, cost=(3.0, 1.0),
                               bonus=10.0)
        m = compile_mpp(MppInstance(tasks=((task,),), hindrance={},
                                    horizon=2))
        assert validate_instance(m) == []
        result = dp_solve(m)
        # start in period 1 (cost 1) rather than period 0 (cost 3)
        assert result.value == 10.0 - 1.0
        statuses = {st.features["task0"] for st in m.locals[0].states}
        assert statuses == {"p", "d"}

    def test_delay_splits_first_step_after_start(self):
        task = MaintenanceTask(id=0, duration=1, delay_prob=0.25,
                               delayed_duration=2, cost=(1.0, 1.0, 1.0),
                               bonus=5.0)
        m = compile_mpp(MppInstance(tasks=((task,),), hindrance={},
                                    horizon=3))
        outs = enumerate_successors(m, m.initial, (0,))
        assert sorted(p for _, p in outs) == [0.25, 0.75]

    def test_task_never_starts_twice(self):
        mpp = gen_random_mpp(GeneratorParams(seed=11))
        m = compile_mpp(mpp)
        for i in m.agents:
            local = m.locals[i]
            for (sid, action), outs in local.transitions.items():
                if action >= len(mpp.tasks[i]):
                    continue
                status = local.states[sid].features[f"task{action}"]
                assert status != "d"  # done tasks are never workable

    def test_compiled_instances_validate_and_solvers_agree(self):
        for seed in range(6):
            params = GeneratorParams(n_agents=2, tasks_per_agent=2,
                                     horizon=4, seed=seed)
            m = compile_mpp(gen_random_mpp(params))
            assert validate_instance(m) == []
            dp = dp_solve(m)
            core = core_solve(m, build_crgs(m))
            assert abs(dp.value - core.value) <= 1e-9, seed

    def test_unfinishable_task_flagged_not_rejected(self):
        task = MaintenanceTask(id=0, duration=5, delay_prob=0.0,
                               delayed_duration=5, cost=(1.0,) * 3)
        m = compile_mpp(MppInstance(tasks=((task,),), hindrance={},
                                    horizon=3))
        assert m.metadata["unfinishable"] == [(0, 0)]


class TestGenerators:
    def test_same_seed_is_byte_identical(self):
        params = GeneratorParams(seed=123, density=0.7)
        a = write_instance(compile_mpp(gen_random_mpp(params)))
        b = write_instance(compile_mpp(gen_random_mpp(params)))
        assert a == b

    def test_zero_density_decouples_at_root(self):
        params = GeneratorParams(seed=5, density=0.0)
        mpp = gen_random_mpp(params)
        assert mpp.hindrance == {}
        m = compile_mpp(mpp)
        report = core_solve(m, build_crgs(m))
        assert report.stats.decouple_events >= 1

    def test_full_density_links_every_cross_pair(self):
        params = GeneratorParams(seed=5, density=1.0, n_agents=2,
                                 tasks_per_agent=2)
        mpp = gen_random_mpp(params)
        pairs = {(a, b) for (a, b, _) in mpp.hindrance}
        assert pairs == {((0, ti), (1, tj)) for ti in range(2)
                        for tj in range(2)}


class TestPyra:
    def test_single_agent_has_no_interactions(self):
        assert gen_pyra(1, 3, seed=0).hindrance == {}

    def test_seven_agents_form_the_tree(self):
        mpp = gen_pyra(7, 3, seed=0)
        edges = {(a[0] + 1, b[0] + 1) for (a, b, _) in mpp.hindrance}
        assert edges == {(1, 2), (1, 3), (2, 4), (2, 5), (3, 6), (3, 7)}

    def test_compiles_clean(self):
        m = compile_mpp(gen_pyra(5, 3, seed=2))
        assert validate_instance(m) == []


class TestCoordint:
    def test_observing_the_delay_beats_open_loop(self):
        for seed in range(5):
            m = compile_mpp(gen_coordint(seed))
            assert validate_instance(m) == []
            v_star = dp_solve(m).value
            v_open = best_open_loop_value(m)
            assert v_star > v_open + 1e-6, seed

    def test_gap_vanishes_without_uncertainty(self):
        m = compile_mpp(gen_coordint(3, delay_prob=0.0))
        v_star = dp_solve(m).value
        v_open = best_open_loop_value(m)
        assert abs(v_star - v_open) <= 1e-9


class TestExampleFixture:
    def test_shape_and_counts(self):
        m = example_two_agent()
        assert validate_instance(m) == []
        assert m.horizon == 2
        actions = list(m.joint_actions(m.initial))
        assert len(actions) == 9
        successors = sum(len(enumerate_successors(m, m.initial, a))
                         for a in actions)
        assert successors == 12

    def test_fixture_value_frozen_from_oracle(self):
        m = example_two_agent()
        result = dp_solve(m)
        # frozen after the first oracle run; guards accidental fixture edits
        assert abs(result.value - 19.0) <= 1e-12
        report = core_solve(m, build_crgs(m))
        assert abs(report.value - result.value) <= 1e-9
