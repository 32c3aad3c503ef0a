"""Fixture: module-level process targets and fan-out callables,
picklable under spawn (clean)."""

from multiprocessing import Process, get_context

from os import getpid


def serve(conn, function, state):
    conn.send(function(*state))


def work(state, task):
    return task


def start(conn):
    child = Process(target=serve, args=(conn, work, ()))
    child.start()
    return get_context("spawn").Process(target=serve, args=(conn, getpid, ()))


class Executor:
    def _fan_out(self, function, state, tasks):
        return [function(*state, task) for task in tasks]

    def rank(self, nodes):
        return self._fan_out(work, (), nodes)
