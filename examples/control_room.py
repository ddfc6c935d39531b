#!/usr/bin/env python3
"""Control room: the §4 coupling control panel plus server monitoring.

The paper: "the most of the work went into providing the interactive
control mechanism which ... is even more general since it can be used for
a variety of COSOFT applications."  This example drives that mechanism:

1. a teacher opens the generic :class:`CouplingControlPanel`;
2. the roster list shows the classroom "in stylized form";
3. selecting a student fetches a simplified representation of their
   environment (widget structure over the wire);
4. couple/decouple buttons issue RemoteCouple/RemoteDecouple;
5. the ``top`` dashboard, rendered from the session's metrics scrape,
   shows the four database categories of §2.2 live (registrations,
   permission rules, historical UI states, floors and locks).
"""

from repro import Session
from repro.apps.classroom import StudentEnvironment, TeacherEnvironment
from repro.apps.control_panel import (
    CouplingControlPanel,
    enable_panel_introspection,
)
from repro.tools.top import parse_prometheus_text, render_frame


def dashboard(session: Session) -> str:
    """One ``python -m repro.tools.top`` frame of *session*'s scrape."""
    return render_frame(
        parse_prometheus_text(session.metrics_text()), source="control room"
    )


def main() -> None:
    session = Session(observability=True)
    teacher_inst = session.create_instance(
        "liveboard", user="dr-hoppe", app_type="cosoft-teacher"
    )
    teacher = TeacherEnvironment(teacher_inst)
    students = {}
    for i, name in enumerate(("kim", "lee")):
        inst = session.create_instance(
            f"ws-{name}", user=name, app_type="cosoft-student"
        )
        students[f"ws-{name}"] = StudentEnvironment(inst)
        enable_panel_introspection(inst)
    session.pump()

    panel = CouplingControlPanel(
        teacher_inst,
        correspondences={
            "/student/exercise/amplitude": "/teacher/params/amplitude",
            "/student/exercise/frequency": "/teacher/params/frequency",
            "/student/exercise/answer": "/teacher/notes",
        },
        root_name="cpanel",
    )
    session.pump()

    print("Step 1-2: the classroom roster")
    for row in panel.roster_list.get("items"):
        print("   ", row)

    print("\nStep 3: inspecting ws-kim's environment")
    panel.select_participant("ws-kim")
    for row in panel.tree_list.get("items")[:8]:
        print("   ", row)

    print("\nStep 4: coupling the parameter scales + answer field")
    panel.select_objects([
        "/student/exercise/amplitude",
        "/student/exercise/frequency",
        "/student/exercise/answer",
    ])
    coupled = panel.couple_selected()
    session.pump()
    print(f"    panel coupled {coupled} objects; status: {panel.status_text}")

    students["ws-kim"].set_parameters(6, 2)
    students["ws-kim"].write_answer("does this look right?")
    session.pump()
    print(f"    teacher now sees A={teacher._amp.value}, "
          f"f={teacher._freq.value}, note="
          f"{teacher.ui.find('/teacher/notes').text!r}")

    print("\nStep 5: the server dashboard")
    print(dashboard(session))

    panel.end_all_sessions()
    session.pump()
    print("\nAfter ending all sessions:")
    print(dashboard(session))
    session.close()


if __name__ == "__main__":
    main()
