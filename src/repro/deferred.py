"""State owners whose contents a columnar replay leaves to a build.

A columnar replay keeps its hosts' state in columns.  When it ends, each
host's state owners — its cache, invalidation tracker, write buffer and
E[W] tracker — get one pending build of the host's objects
(:meth:`Deferrable.defer`), which fills the owners' dicts in place.  The
first read of an owner's dict through the owner runs it, and so does
copying or pickling the owner; a replay whose caller reads no node state
never builds an object.

While its build is pending, an owner's class is a subclass of its own
(:func:`_pending_class`) whose one extra attribute, a property under the
dict's name, runs the build and turns the owner back into its class.  The
owner classes carry no descriptor of their own, so an owner no replay
deferred — every owner the scalar engines drive — reads its dict as a
plain slot or instance attribute.  On CPython 3.11 a class-level lazy
descriptor costs ~40 ns on every read of its attribute, and a
``__getattr__`` slows every attribute read of the class.
"""

from __future__ import annotations

from typing import Callable, Dict

#: Each owner class's pending subclass, made on first use.
_PENDING: Dict[type, type] = {}


class Deferrable:
    """An owner of one state dict (named by :attr:`_state`) that a replay
    can leave to a pending build."""

    __slots__ = ("_build",)

    #: The name of the attribute holding the owner's state dict.
    _state: str

    def defer(self, build: Callable[[], None]) -> None:
        """Leave the state dict to ``build``, which fills it in place on the
        first read of the dict through this owner.  A build still pending
        runs first, so builds run in the order they were handed in."""
        getattr(self, self._state)
        self._build = build
        self.__class__ = _pending_class(type(self))


def settled_class(owner: object) -> type:
    """``type(owner)``, or the class an owner with a pending build returns to."""
    cls = type(owner)
    return getattr(cls, "_settles_to", cls)


def _pending_class(cls: type) -> type:
    """The subclass of ``cls`` an owner of it takes while its build is pending."""
    pending = _PENDING.get(cls)
    if pending is None:
        state = cls._state

        def settle(owner: Deferrable) -> dict:
            """Run the pending build and return the filled dict; the owner
            is an instance of its own class again."""
            build = owner._build
            del owner._build
            owner.__class__ = cls
            build()
            return getattr(owner, state)

        def reduce_ex(owner: Deferrable, protocol: int):
            settle(owner)
            return owner.__reduce_ex__(protocol)

        pending = _PENDING[cls] = type(cls)(
            cls.__name__,
            (cls,),
            {
                "__slots__": (),
                "__module__": cls.__module__,
                "__qualname__": cls.__qualname__,
                "__doc__": cls.__doc__,
                "_settles_to": cls,
                state: property(settle),
                "__reduce_ex__": reduce_ex,
            },
        )
    return pending
