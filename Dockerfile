# Container image for the HTTP serving layer (`repro serve`).
#
#   docker build -t probesim-serve .
#   docker run --rm -p 8080:8080 probesim-serve
#
# The default command serves the tiny wiki-vote stand-in dataset on the
# native engine with an integer seed (answers are pure functions of
# (config, graph, query), which is what makes request coalescing
# byte-exact).  To serve your own
# graph, mount an edge list and override the command:
#
#   docker run --rm -p 8080:8080 -v /path/to/graph.txt:/data/graph.txt \
#       probesim-serve repro serve /data/graph.txt --host 0.0.0.0 --port 8080

FROM python:3.12-slim

WORKDIR /app

# Layer the dependency install ahead of the source copy so rebuilding after
# a code change reuses the cached numpy/scipy wheels.
COPY pyproject.toml README.md ./
RUN pip install --no-cache-dir numpy scipy

COPY src ./src
# [server] is the (currently empty) extra naming the serving deployment.
RUN pip install --no-cache-dir .[server]

EXPOSE 8080

# --host 0.0.0.0: the server must bind all interfaces to be reachable
# through the container's published port.
CMD ["repro", "serve", "--dataset", "wiki-vote", "--scale", "tiny", \
     "--host", "0.0.0.0", "--port", "8080", \
     "--seed", "7", \
     "--eps-a", "0.2", "--delta", "0.1", "--num-walks", "100"]

HEALTHCHECK --interval=10s --timeout=3s --start-period=15s \
    CMD ["python", "-c", \
         "import json, urllib.request; \
          h = json.load(urllib.request.urlopen('http://127.0.0.1:8080/healthz', timeout=2)); \
          assert h['status'] == 'ok', h"]
