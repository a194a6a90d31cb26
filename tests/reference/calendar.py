"""A discrete-event calendar as a sorted list, for checking the engine against.

Imports nothing from ``repro``.  Every event is one ``[time, seq, fn, args,
live]`` entry kept in ``(time, seq)`` order (``seq`` is unique, so a
comparison never reaches ``fn``); ``cancel()`` clears ``live``, and a dead
entry is dropped when it reaches the front.  No heap, no corpse count, no
compaction: every answer is read straight off the list.
"""

import bisect


class Entry(list):
    def cancel(self):
        self[4] = False


class Calendar:
    def __init__(self):
        self.now = 0.0
        self.entries = []
        self.events_scheduled = 0
        self.events_processed = 0

    def schedule_at(self, time, fn, *args):
        if not time >= self.now:
            raise ValueError(time)
        self.events_scheduled += 1
        entry = Entry([time, self.events_scheduled, fn, args, True])
        bisect.insort(self.entries, entry)
        return entry

    arm_at = schedule_at

    def schedule(self, delay, fn, *args):
        if not delay >= 0:
            raise ValueError(delay)
        self.schedule_at(self.now + delay, fn, *args)

    def peek_time(self):
        while self.entries and not self.entries[0][4]:
            self.entries.pop(0)
        return self.entries[0][0] if self.entries else None

    def step(self, until=None):
        time = self.peek_time()
        if time is None or (until is not None and time > until):
            return False
        _, _, fn, args, _ = self.entries.pop(0)
        self.now = time
        fn(*args)
        self.events_processed += 1
        return True

    def run(self, until=None, max_events=None):
        fired = 0
        while self.step(until):
            fired += 1
            if max_events is not None and fired >= max_events:
                break
        if until is not None and self.now < until:
            time = self.peek_time()
            if time is None or time > until:
                self.now = until

    def pending(self):
        return sum(1 for entry in self.entries if entry[4])

    def clear(self):
        self.entries.clear()
