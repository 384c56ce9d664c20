import time


def stamp():
    return time.time()
