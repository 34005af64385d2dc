"""Trace the adaptive slot controller against a scripted contention history.

The controller only ever sees (slots used, stations joined) per round.
This script replays a session that starts oversized, collapses into
collisions, and recovers, printing the window the controller picks each
time.
"""

from plcmac import RunConfig
from plcmac.slot_alloc import fresh_state, next_slot_count, record_pte


def run_trace(n0: int, joins_script: list[int]) -> None:
    cfg = RunConfig()
    state = fresh_state(n0)
    print(f"  round  window  joined  eta    idle-streak  next-branch")
    for round_no, joins in enumerate(joins_script, start=1):
        window = next_slot_count(state, cfg)
        if window == 0:
            print(f"  {round_no:5d}  budget exhausted: the controller asks the session to stop probing")
            return
        joins = min(joins, window)
        state = record_pte(state, window, joins)
        eta = joins / window
        if joins > 0:
            branch = "hold" if eta > cfg.eta_min else f"stretch x{cfg.k1}"
        elif state.t_f <= cfg.t_f_max:
            branch = f"double x{cfg.k2}"
        else:
            branch = "stop"
        print(f"  {round_no:5d}  {window:6d}  {joins:6d}  {eta:5.2f}  {state.t_f:11d}  {branch}")


def main() -> None:
    print("healthy session: plenty of joins, the window holds steady")
    run_trace(n0=20, joins_script=[9, 8, 7, 6])

    print("\nthin session: sparse joins stretch the window")
    run_trace(n0=20, joins_script=[4, 3, 2, 5])

    print("\ncollision storm: idle rounds double the window until the budget runs out")
    run_trace(n0=4, joins_script=[0, 0, 0, 0, 0])


if __name__ == "__main__":
    main()
