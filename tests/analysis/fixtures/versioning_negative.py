"""VER001 negative fixture: every mutation path reaches a version bump."""


class Network:
    def __init__(self) -> None:
        self._nodes = {}  # constructors build fresh state: no stale caches
        self.topology_version = 0

    def straight_line(self, node) -> None:
        node.predecessor_id = None
        self.note_overlay_change()

    def both_branches(self, node, flag: bool) -> None:
        if flag:
            node.successor_id = 7
            self.note_overlay_change()
        else:
            node.predecessor_id = 9
            self.note_overlay_change()

    def bump_in_return(self, node) -> int:
        node.successor_id = 3
        return self._register(node)

    def finally_dominates(self, node) -> None:
        try:
            node.successor_list = [1]
        finally:
            self.note_overlay_change()

    def direct_counter_write(self, node) -> None:
        node.alive = False
        self.topology_version += 1

    def column_write_then_bump(self, table, slots, changed: bool) -> None:
        if changed:
            table.successor_lists[slots] = 0
            table.list_lengths[slots] = 1
            self.note_overlay_change()
        table.cursor[slots] = 3  # the finger-repair cursor is not a pointer

    def read_only(self, node) -> int:
        return node.successor_id if node.alive else -1

    def note_overlay_change(self) -> None:
        self.topology_version += 1

    def _register(self, node) -> int:
        self.topology_version += 1
        return node.ident
