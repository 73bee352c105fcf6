"""Fig. 7 — IO capability mapping for authentication stage 1.

Regenerates both halves of the figure (v4.2-and-lower vs v5.0-and-
higher) from the host stack's actual policy code, and asserts the one
cell the attack leans on: a NoInputNoOutput *responder* with a
DisplayYesNo *initiator* yields Just Works — silent on ≤4.2, a bare
Yes/No popup (no confirmation value) on ≥5.0.
"""

from __future__ import annotations

from repro.core.types import BluetoothVersion, IoCapability
from repro.host.iocap import (
    ConfirmationBehavior,
    confirmation_behavior,
    confirmation_matrix,
    render_confirmation_matrix,
)


def build_both_matrices():
    return (
        render_confirmation_matrix(BluetoothVersion.V4_2),
        render_confirmation_matrix(BluetoothVersion.V5_0),
    )


def test_fig7_iocap_mapping(save_artifact):
    old_table, new_table = build_both_matrices()
    save_artifact("fig7_iocap_mapping.txt", old_table + "\n\n" + new_table)

    dyn = IoCapability.DISPLAY_YES_NO
    nio = IoCapability.NO_INPUT_NO_OUTPUT

    # The attack cell: initiator=victim (DisplayYesNo), responder=
    # attacker (NoInputNoOutput).
    assert (
        confirmation_behavior(BluetoothVersion.V4_2, dyn, nio, True)
        is ConfirmationBehavior.AUTO_CONFIRM
    )
    v5 = confirmation_behavior(BluetoothVersion.V5_0, dyn, nio, True)
    assert v5 is ConfirmationBehavior.POPUP_YES_NO
    # Crucially the 5.0 popup carries no confirmation value.
    assert v5 is not ConfirmationBehavior.POPUP_WITH_NUMBER

    # Structure: both matrices enumerate the same 4 cells.
    assert len(confirmation_matrix(BluetoothVersion.V4_2)) == 4
    assert len(confirmation_matrix(BluetoothVersion.V5_0)) == 4
