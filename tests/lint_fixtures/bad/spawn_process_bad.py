"""Fixture: process targets and fan-out callables that cannot be pickled
under spawn (flagged)."""

from multiprocessing import Process, get_context


def local_target(conn):
    def serve():
        conn.send(None)

    child = Process(target=serve)
    child.start()
    return child


def bound_target(worker):
    return get_context("spawn").Process(target=worker.run)


class Executor:
    def _fan_out(self, function, state, tasks):
        return [function(*state, task) for task in tasks]

    def rank(self, nodes):
        return self._fan_out(lambda *args: args, (), nodes)

    def forward(self, function, chunks):
        return self._fan_out(function, (), chunks)  # a parameter
